//! Sorted String Table files: immutable on-disk runs of key-value pairs
//! with a persisted index, a pluggable per-file range filter (§6.1's
//! integration point: "Static filters … are built on every SST file") and
//! a fixed-size footer that makes each file self-describing.
//!
//! ## On-disk layout (format v3, magic `PRSSTv3`)
//!
//! ```text
//! [data block]*                      (crate::block layout: var-len keys,
//!                                    restart-point prefix compression)
//! [index block]                      u32 n, then n × (u16 first_len, first,
//!                                    u16 last_len, last, u64 offset,
//!                                    u32 len), then u32 CRC-32
//! [filter block]                     FilterCodec envelope (may be absent)
//! [footer: 64 bytes]
//!    0  u64 index_off    32 u64 n_entries
//!    8  u64 index_len    40 u32 reserved (written 0, ignored on read)
//!   16  u64 filter_off   44 u32 filter key width
//!   24  u64 filter_len   48 u16 format version (3)
//!                        50 u32 n_tombstones
//!                        54 2×u8 zero padding
//!                        56 8×u8 magic "PRSSTv3\0"
//! ```
//!
//! Keys are arbitrary non-empty byte strings up to the store's
//! [`crate::config::MAX_KEY_BYTES`]. The footer's width field does not constrain them: it
//! records the *canonical filter-training width* — every key is
//! NUL-padded (or truncated) to this width before feeding the filter,
//! which keeps probes monotone and false-negative-free (§7.1's string
//! canonicalization). Files are therefore self-describing. The index
//! block length-prefixes its boundary keys.
//!
//! `PRSSTv3` is the only generation this build reads or writes. A file
//! carrying the magic of the fixed-width `PRSSTv1`/`PRSSTv2` layouts that
//! preceded it (or any other) fails [`SstReader::open`] with
//! [`Error::Corruption`] naming the unsupported format, and `Db::open` of
//! a store whose `MANIFEST` lists one fails with it, touching nothing.
//!
//! Which files are live, and at which level, is not a file's business: the
//! store's `MANIFEST` (`crate::manifest`) records it. Offset 40 once held a
//! level tag; earlier `PRSSTv3` files may still carry one there, and it is
//! ignored. The filter block is the [`FilterCodec`] envelope (self-describing,
//! checksummed); [`SstReader::open`] decodes it, so a reader is plain data
//! from the moment it exists. A block that will not decode costs that file
//! its filter, never the open.
//!
//! Walking a file's entries is [`SstCursor`]'s job and nobody else's; what
//! a file's filter is trained on is `FilterKeys`' — the writer and the
//! adaptive re-train feed their keys through it, so both train over the
//! same canonical set at the same width.
//!
//! Tombstone entries are keys like any other as far as the filter is
//! concerned: a file's filter is built over *all* of its keys, deletes
//! included. This is load-bearing — if a filter could answer "empty" for
//! a range holding only a tombstone, the read path would skip the file,
//! miss the delete, and resurrect an older version of the key from a
//! deeper level.

use crate::block::{Block, VarBlockBuilder};
use crate::error::{Error, Result};
use crate::filter_hook::FilterFactory;
use crate::query_queue::QueryQueue;
use crate::stats::{ratio, Stats};
use proteus_core::codec::{crc32, ByteReader, CodecError};
use proteus_core::key::{key_head, pad_key_into, INLINE_KEY_BYTES};
use proteus_core::keyset::KeySet;
use proteus_core::RangeFilter;
use proteus_filters::FilterCodec;
use std::cell::RefCell;
use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The one SST format version this build writes and reads.
pub const SST_FORMAT_VERSION: u16 = 3;

/// Trailing magic of every SST file.
pub const SST_MAGIC_V3: [u8; 8] = *b"PRSSTv3\0";

/// Fixed footer size in bytes.
pub const SST_FOOTER_LEN: u64 = 64;

/// One decoded SST entry: canonical key plus `Some(value)` for a live put
/// or `None` for a tombstone.
pub type Entry = (Vec<u8>, Option<Vec<u8>>);

fn bad(path: &Path, what: &str) -> Error {
    Error::corruption(format!("{}: {what}", path.display()))
}

/// The footer's fields in file order: index offset and length, filter
/// offset and length, entry count, then (past the reserved word) filter
/// key width, format version and tombstone count.
fn decode_footer(footer: &[u8]) -> std::result::Result<([u64; 5], u32, u16, u32), CodecError> {
    let mut r = ByteReader::new(footer);
    let words = [r.u64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    r.take(4)?;
    Ok((words, r.u32()?, r.u16()?, r.u32()?))
}

/// Decode a CRC-checked index block body: a count, then per block two
/// non-empty, ordered, `u16`-length-prefixed boundary keys, its offset and
/// its length — inside the `data_len`-byte data section — and nothing after
/// the last entry.
fn decode_index(body: &[u8], data_len: u64) -> std::result::Result<Vec<BlockMeta>, CodecError> {
    let mut r = ByteReader::new(body);
    let n = r.u32()? as usize;
    let key = |r: &mut ByteReader<'_>| match r.u16()? {
        0 => Err(CodecError::Invalid("zero-length index key")),
        len => Ok(r.take(len.into())?.to_vec()),
    };
    let mut index = Vec::with_capacity(n.min(body.len()));
    for _ in 0..n {
        let (first_key, last_key) = (key(&mut r)?, key(&mut r)?);
        let (offset, len) = (r.u64()?, r.u32()?);
        if first_key > last_key || offset.checked_add(len.into()).is_none_or(|e| e > data_len) {
            return Err(CodecError::Invalid("index entry out of bounds"));
        }
        index.push(BlockMeta { first_key, last_key, offset, len });
    }
    r.finish()?;
    Ok(index)
}

/// Serialize the fixed 64-byte footer (shared by the writer and the
/// adaptive filter-block rewrite).
fn encode_footer(
    index_off: u64,
    index_len: u64,
    filter_len: u64,
    n_entries: u64,
    n_tombstones: u64,
    width: usize,
) -> Result<[u8; SST_FOOTER_LEN as usize]> {
    let mut f = [0u8; SST_FOOTER_LEN as usize];
    f[0..8].copy_from_slice(&index_off.to_le_bytes());
    f[8..16].copy_from_slice(&index_len.to_le_bytes());
    f[16..24].copy_from_slice(&(index_off + index_len).to_le_bytes());
    f[24..32].copy_from_slice(&filter_len.to_le_bytes());
    f[32..40].copy_from_slice(&n_entries.to_le_bytes());
    f[44..48].copy_from_slice(&(width as u32).to_le_bytes());
    f[48..50].copy_from_slice(&SST_FORMAT_VERSION.to_le_bytes());
    // The footer field is u32; a file with 2^32 tombstones is far beyond
    // any real SST, but a silent wrap would corrupt the count, so the
    // impossible case fails loudly instead.
    let n = u32::try_from(n_tombstones)
        .map_err(|_| Error::corruption("more than u32::MAX tombstones in one SST"))?;
    f[50..54].copy_from_slice(&n.to_le_bytes());
    f[56..64].copy_from_slice(&SST_MAGIC_V3);
    Ok(f)
}

/// Encode a filter block: the filter's envelope, or nothing for a file
/// without a filter.
fn encode_filter_block(filter: Option<&dyn RangeFilter>) -> Vec<u8> {
    filter.map_or_else(Vec::new, |f| FilterCodec::encode(f).unwrap_or_default())
}

/// Path of SST `id` inside `dir` (`NNNNNNNN.sst`).
pub(crate) fn sst_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("{id:08}.sst"))
}

/// Make a completely written `tmp_path` durable under its real name,
/// replacing any file there whole: sync, rename, sync the directory. The
/// filter-block rewrite and the `MANIFEST` publish through this.
pub(crate) fn publish(tmp: &File, tmp_path: &Path, path: &Path) -> Result<()> {
    tmp.sync_all()?;
    std::fs::rename(tmp_path, path)?;
    sync_dir(path.parent().unwrap_or(Path::new(".")))
}

/// Sync directory `dir`, so the entries just created or renamed in it
/// survive a power loss. SSTs, the `MANIFEST` and WAL segments all go
/// through this one helper.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    Ok(File::open(dir)?.sync_all()?)
}

/// The filter-key feed: the one place a file's entry keys — tombstones
/// included, see the module docs — become the canonical key set its
/// filter is trained on. Each is NUL-padded/truncated to the file's filter
/// width; that is monotone but not strict, so adjacent canonical
/// duplicates are dropped to keep the set strictly ascending.
pub(crate) struct FilterKeys {
    width: usize,
    flat: Vec<u8>,
}

impl FilterKeys {
    fn new(width: usize) -> Self {
        FilterKeys { width, flat: Vec::new() }
    }

    /// Feed the next entry key (ascending raw order). The key is
    /// canonicalized on the stack: a filter width never exceeds
    /// `INLINE_KEY_BYTES`.
    fn push(&mut self, key: &[u8]) {
        let mut buf = [0u8; INLINE_KEY_BYTES];
        let canonical = &mut buf[..self.width];
        pad_key_into(key, canonical);
        let n = self.flat.len();
        if n < self.width || self.flat[n - self.width..] != *canonical {
            self.flat.extend_from_slice(canonical);
        }
    }

    /// Train the file's filter from these keys and the file's view of the
    /// sample queue (§6.1: "used in conjunction with the keys in each SST
    /// file to determine the optimal filter design for each SST file") —
    /// the queries that will actually reach this file, see
    /// [`QueryQueue::view`]; `None` when the budget rounds to zero bits,
    /// decided before any key set or view is built. Also returns the
    /// queue's [`QueryQueue::recorded`] mark the view was taken at.
    pub(crate) fn train(
        self,
        min_key: &[u8],
        max_key: &[u8],
        factory: &dyn FilterFactory,
        queue: &QueryQueue,
        bits_per_key: f64,
    ) -> (Option<Box<dyn RangeFilter>>, u64) {
        let trained_at = queue.recorded();
        let n_keys = self.flat.len().checked_div(self.width).unwrap_or(0);
        let m_bits = (bits_per_key * n_keys as f64) as u64;
        if m_bits == 0 {
            return (None, trained_at);
        }
        let keyset = KeySet::from_sorted_canonical(self.flat, self.width);
        let mut view = queue.view(self.width, min_key, max_key);
        view.retain_empty(&keyset);
        (Some(factory.build(&keyset, view.training(), m_bits)), trained_at)
    }
}

/// Index entry for one block.
#[derive(Debug, Clone)]
pub struct BlockMeta {
    /// First (smallest) key stored in the block.
    pub first_key: Vec<u8>,
    /// Last (largest) key stored in the block.
    pub last_key: Vec<u8>,
    /// Byte offset of the block within the file's data section.
    pub offset: u64,
    /// Encoded block length in bytes.
    pub len: u32,
}

/// One live SST as [`crate::Db::describe`] reports it: what the file holds,
/// the design its filter was given and how that filter has done since.
#[derive(Debug, Clone, PartialEq)]
pub struct SstDescription {
    /// File id.
    pub id: u64,
    /// Entries, tombstones included.
    pub entries: u64,
    /// Tombstones among `entries`.
    pub tombstones: u64,
    /// Bytes of the data section.
    pub bytes: u64,
    /// Smallest key.
    pub min_key: Vec<u8>,
    /// Largest key.
    pub max_key: Vec<u8>,
    /// The filter's [`RangeFilter::name`], which carries its design
    /// (`l1`, how the coarse stage is stored, `l2`); `None` = no filter.
    pub filter: Option<String>,
    /// The filter's size over `entries`: its `size_bits()` per entry.
    pub bits_per_key: Option<f64>,
    /// The FPR the filter's design predicted on its training sample.
    pub expected_fpr: Option<f64>,
    /// Probes in the current window that passed a range holding no key.
    pub false_positives: u64,
    /// Probes in the current window that answered negative.
    pub true_negatives: u64,
    /// Times the filter was re-trained in place.
    pub retrains: u32,
}

/// An immutable SST file handle.
pub struct SstReader {
    /// File id (the `NNNNNNNN` of `NNNNNNNN.sst`; allocated monotonically).
    pub id: u64,
    path: PathBuf,
    file: File,
    width: usize,
    index: Vec<BlockMeta>,
    /// `key_head` of each block's `last_key`, beside `index`: the fences
    /// [`SstReader::first_candidate_block`] searches without leaving this
    /// one flat array unless two heads tie.
    last_heads: Vec<u64>,
    /// Size of the persisted index block including its CRC (needed to
    /// rewrite the filter block without re-encoding the index).
    index_len: u64,
    /// Size of the persisted filter block (0 = none).
    filter_block_len: usize,
    /// The file's range filter: moved in by the process that trained it,
    /// decoded from the filter block by [`SstReader::open`]. `None` when
    /// the file has no filter block or the block would not decode — every
    /// probe is then positive.
    filter: Option<Box<dyn RangeFilter>>,
    /// The sample queue's [`QueryQueue::recorded`] mark when this process
    /// trained the filter; 0 for a filter decoded from disk.
    trained_at: u64,
    /// Filter probes against this file that answered positive for a range
    /// holding none of its keys (per-file false-positive evidence).
    probe_fp: AtomicU64,
    /// Filter probes that answered negative (true negatives).
    probe_tn: AtomicU64,
    /// How many times this file's filter has been re-trained (carried
    /// across [`SstReader::with_new_filter`] replacements). The FPR
    /// trigger backs off exponentially in this count, so a filter that
    /// cannot beat the threshold at its memory budget stops being
    /// re-trained over and over; the off-prediction trigger is unaffected.
    retrain_count: u32,
    /// Smallest key in the file.
    pub min_key: Vec<u8>,
    /// Largest key in the file.
    pub max_key: Vec<u8>,
    /// Number of key-value entries, tombstones included.
    pub n_entries: u64,
    /// Number of tombstone entries among `n_entries`.
    pub n_tombstones: u64,
    /// Bytes of the data section (excludes index, filter block, footer);
    /// the quantity level-size compaction triggers are measured in.
    pub file_bytes: u64,
}

impl std::fmt::Debug for SstReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SstReader")
            .field("id", &self.id)
            .field("entries", &self.n_entries)
            .field("tombstones", &self.n_tombstones)
            .field("blocks", &self.index.len())
            .finish()
    }
}

impl SstReader {
    /// Reopen a persisted SST: read the footer, validate magic/version/
    /// geometry, and load the block index and the filter. Corrupt filter
    /// bytes or an unknown kind tag never fail the open: that file serves
    /// without a filter ([`SstReader::filter`] is `None` while
    /// [`SstReader::filter_block_len`] is not 0).
    pub fn open(path: impl Into<PathBuf>, id: u64) -> Result<SstReader> {
        Ok(Self::open_timed(path, id)?.0)
    }

    /// [`SstReader::open`], also returning how long the filter block took
    /// to decode, for the caller that keeps `Stats::filter_load_ns`.
    pub(crate) fn open_timed(path: impl Into<PathBuf>, id: u64) -> Result<(SstReader, Duration)> {
        let mut reader = Self::parse(path.into(), id)?;
        if reader.filter_block_len == 0 {
            return Ok((reader, Duration::ZERO));
        }
        let mut bytes = vec![0u8; reader.filter_block_len];
        reader.file.read_exact_at(&mut bytes, reader.file_bytes + reader.index_len)?;
        let t0 = Instant::now();
        // An unknown kind tag (a newer build's, or the retired tag 0) is no
        // more usable than corrupt bytes.
        reader.filter = FilterCodec::decode(&bytes).ok().map(|d| d.filter);
        Ok((reader, t0.elapsed()))
    }

    /// Footer and index block of the file at `path`, as a reader whose
    /// filter is still to be supplied — decoded by [`SstReader::open`],
    /// moved in by [`SstReader::open_trained`].
    fn parse(path: PathBuf, id: u64) -> Result<SstReader> {
        let file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        if file_len < SST_FOOTER_LEN {
            return Err(bad(&path, "file shorter than footer"));
        }
        let mut footer = [0u8; SST_FOOTER_LEN as usize];
        file.read_exact_at(&mut footer, file_len - SST_FOOTER_LEN)?;
        let magic = &footer[56..64];
        if magic != SST_MAGIC_V3 {
            // Another generation of this format family is named, so the
            // operator learns it is an unsupported file, not bit rot.
            if magic.starts_with(&SST_MAGIC_V3[..6]) {
                let name = String::from_utf8_lossy(&magic[..7]);
                return Err(bad(&path, &format!("unsupported SST format {name} (only PRSSTv3)")));
            }
            return Err(bad(&path, "bad SST magic"));
        }
        let codec = |e: CodecError| bad(&path, &format!("meta section: {e}"));
        let (
            [index_off, index_len, filter_off, filter_len, n_entries],
            width,
            version,
            n_tombstones,
        ) = decode_footer(&footer).map_err(codec)?;
        if version != SST_FORMAT_VERSION {
            return Err(bad(&path, "v3 magic with a non-3 format version"));
        }
        let (width, n_tombstones) = (width as usize, u64::from(n_tombstones));
        if width == 0 || width > 64 {
            return Err(bad(&path, "implausible filter key width"));
        }
        let meta_end = file_len - SST_FOOTER_LEN;
        if index_off.checked_add(index_len).is_none_or(|e| e > meta_end)
            || filter_off.checked_add(filter_len).is_none_or(|e| e > meta_end)
            || filter_off != index_off + index_len
        {
            return Err(bad(&path, "meta section out of bounds"));
        }
        if n_entries == 0 {
            return Err(bad(&path, "empty SST"));
        }
        if n_tombstones > n_entries {
            return Err(bad(&path, "more tombstones than entries"));
        }

        // Index block: entries + trailing CRC-32.
        let mut raw = vec![0u8; index_len as usize];
        file.read_exact_at(&mut raw, index_off)?;
        if raw.len() < 8 {
            return Err(bad(&path, "index block too short"));
        }
        let (body, crc) = raw.split_at(raw.len() - 4);
        if crc32(body) != ByteReader::new(crc).u32().map_err(codec)? {
            return Err(bad(&path, "index checksum mismatch"));
        }
        let index = decode_index(body, index_off).map_err(codec)?;
        let (min_key, max_key) = match (index.first(), index.last()) {
            (Some(f), Some(l)) => (f.first_key.clone(), l.last_key.clone()),
            _ => return Err(bad(&path, "empty index block")),
        };

        Ok(SstReader {
            id,
            path,
            file,
            width,
            last_heads: index.iter().map(|m| key_head(&m.last_key)).collect(),
            index,
            index_len,
            filter_block_len: filter_len as usize,
            filter: None,
            trained_at: 0,
            probe_fp: AtomicU64::new(0),
            probe_tn: AtomicU64::new(0),
            retrain_count: 0,
            min_key,
            max_key,
            n_entries,
            n_tombstones,
            file_bytes: index_off,
        })
    }

    /// Open the file this process just wrote, through the same parse as
    /// any recovered file (so a fresh reader and a reopened one cannot
    /// disagree), and move in the filter it just trained at queue mark
    /// `trained_at` (`None` = no budget for one): the block it was
    /// persisted to is not read back.
    fn open_trained(
        path: PathBuf,
        id: u64,
        filter: Option<Box<dyn RangeFilter>>,
        trained_at: u64,
        retrain_count: u32,
    ) -> Result<SstReader> {
        let mut reader = SstReader::parse(path, id)?;
        reader.retrain_count = retrain_count;
        reader.trained_at = trained_at;
        reader.filter = filter;
        Ok(reader)
    }

    /// Number of data blocks.
    pub fn n_blocks(&self) -> usize {
        self.index.len()
    }

    /// The canonical filter-training width: probes against this file's
    /// filter must be NUL-padded/truncated to this many bytes.
    pub fn filter_width(&self) -> usize {
        self.width
    }

    /// Index metadata of block `i`.
    pub fn block_meta(&self, i: usize) -> &BlockMeta {
        &self.index[i]
    }

    /// The per-file range filter; `None` = every probe is positive.
    pub fn filter(&self) -> Option<&dyn RangeFilter> {
        self.filter.as_deref()
    }

    /// The sample queue's [`QueryQueue::recorded`] mark when this process
    /// trained the file's filter; 0 for a filter decoded from disk.
    pub fn trained_at(&self) -> u64 {
        self.trained_at
    }

    /// Record the outcome of one real filter probe against this file.
    pub fn record_probe(&self, false_positive: bool) {
        if false_positive {
            self.probe_fp.fetch_add(1, Ordering::Relaxed);
        } else {
            self.probe_tn.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Filter probes recorded against this file since it was opened (or
    /// since its filter was last re-trained — the replacement reader starts
    /// a fresh observation window).
    pub fn observed_probes(&self) -> u64 {
        self.probe_fp.load(Ordering::Relaxed) + self.probe_tn.load(Ordering::Relaxed)
    }

    /// How many times this file's filter has been re-trained in place.
    pub fn retrain_count(&self) -> u32 {
        self.retrain_count
    }

    /// Empirical FPR of this file's filter over the current observation
    /// window: `fp / (fp + tn)`, `0` before any probe.
    pub fn observed_fpr(&self) -> f64 {
        let fp = self.probe_fp.load(Ordering::Relaxed);
        ratio(fp, fp + self.probe_tn.load(Ordering::Relaxed))
    }

    /// What this file holds and how its filter has done, as one value.
    pub(crate) fn describe(&self) -> SstDescription {
        SstDescription {
            id: self.id,
            entries: self.n_entries,
            tombstones: self.n_tombstones,
            bytes: self.file_bytes,
            min_key: self.min_key.clone(),
            max_key: self.max_key.clone(),
            filter: self.filter().map(|f| f.name()),
            bits_per_key: self.filter().map(|f| f.size_bits() as f64 / self.n_entries as f64),
            expected_fpr: self.filter().and_then(|f| f.expected_fpr()),
            false_positives: self.probe_fp.load(Ordering::Relaxed),
            true_negatives: self.probe_tn.load(Ordering::Relaxed),
            retrains: self.retrain_count,
        }
    }

    /// The key set a re-trained filter must cover: every entry key, read
    /// straight from disk (no block cache; each block once).
    pub(crate) fn filter_keys(self: &Arc<Self>, stats: &Stats) -> Result<FilterKeys> {
        let mut keys = FilterKeys::new(self.width);
        let mut cursor = SstCursor::new(Arc::clone(self));
        while cursor.step(|sst, b, block| sst.read_block(b, stats, block).map(drop))? {
            keys.push(cursor.key());
        }
        Ok(keys)
    }

    /// Atomically replace this file's filter block (and footer) with a
    /// re-trained filter, leaving every data and index byte untouched.
    ///
    /// The rewrite goes to `NNNNNNNN.sst.tmp`: data + index are copied from
    /// the live file, the new filter block and footer are appended, the
    /// file is synced and renamed over the original, and the directory is
    /// synced — so a crash at any point leaves either the old or the new
    /// filter, never a torn file (and at worst a `.sst.tmp` the next open
    /// deletes).
    /// Readers holding this reader keep serving from the
    /// old inode; the returned replacement reader (same id, fresh probe
    /// counters, the new filter pre-installed) is what the caller swaps
    /// into the manifest.
    pub fn with_new_filter(
        &self,
        filter: Option<Box<dyn RangeFilter>>,
        trained_at: u64,
    ) -> Result<SstReader> {
        let filter_bytes = encode_filter_block(filter.as_deref());
        // Data section + index block, byte-identical from the live inode.
        let mut head = vec![0u8; (self.file_bytes + self.index_len) as usize];
        self.file.read_exact_at(&mut head, 0)?;
        let footer = encode_footer(
            self.file_bytes,
            self.index_len,
            filter_bytes.len() as u64,
            self.n_entries,
            self.n_tombstones,
            self.width,
        )?;
        let tmp_path = self.path.with_extension("sst.tmp");
        let tmp = File::create(&tmp_path)?;
        tmp.write_all_at(&head, 0)?;
        tmp.write_all_at(&filter_bytes, head.len() as u64)?;
        tmp.write_all_at(&footer, (head.len() + filter_bytes.len()) as u64)?;
        publish(&tmp, &tmp_path, &self.path)?;
        SstReader::open_trained(
            self.path.clone(),
            self.id,
            filter,
            trained_at,
            self.retrain_count + 1,
        )
    }

    /// Size of the persisted filter block in bytes (0 = none).
    pub fn filter_block_len(&self) -> usize {
        self.filter_block_len
    }

    /// Does this file's key range intersect `[lo, hi]`?
    pub fn overlaps(&self, lo: &[u8], hi: &[u8]) -> bool {
        !(self.max_key.as_slice() < lo || self.min_key.as_slice() > hi)
    }

    /// Index of the first block that could contain a key ≥ `lo`: the
    /// first whose last key is ≥ `lo`. Searches on each last key's first 8
    /// bytes as one integer; only a block whose head equals `lo`'s compares
    /// its full last key.
    pub fn first_candidate_block(&self, lo: &[u8]) -> usize {
        let head = key_head(lo);
        let (mut a, mut b) = (0usize, self.last_heads.len());
        while a < b {
            let mid = (a + b) / 2;
            let below = match self.last_heads[mid].cmp(&head) {
                std::cmp::Ordering::Equal => self.index[mid].last_key.as_slice() < lo,
                order => order.is_lt(),
            };
            if below {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        a
    }

    /// Read block `i` from disk, check it in full and decode it into
    /// `block` (no caching here; the DB layer caches), returning its stored
    /// bytes: what the block cache keeps. Updates I/O statistics. A block
    /// that fails the check — bad codec, reserved flag bits, lengths
    /// escaping the buffer, keys out of order — surfaces as
    /// [`Error::Corruption`] with the file path attached.
    ///
    /// The file is read into a buffer the calling thread reuses, then copied
    /// out: on a 2-core x86 box that was ~0.5 µs faster per `seek_empty`
    /// block than reading into the fresh allocation. A buffer grown past
    /// sixteen blocks' worth (a huge value) is not kept.
    pub fn read_block(&self, i: usize, stats: &Stats, block: &mut Block) -> Result<Arc<[u8]>> {
        thread_local! {
            static READ_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
        }
        let meta = &self.index[i];
        let stored = READ_BUF.with_borrow_mut(|buf| {
            buf.resize(meta.len as usize, 0);
            let read = self.file.read_exact_at(buf, meta.offset).map(|()| Arc::from(&buf[..]));
            if buf.capacity() > 16 * crate::config::BLOCK_BYTES {
                *buf = Vec::new();
            }
            read
        })?;
        stats.blocks_read.inc();
        stats.bytes_read.add(meta.len.into());
        block.load(&stored).map_err(|e| self.block_error(i, e))?;
        Ok(stored)
    }

    /// Decode block `i`'s `stored` bytes, which [`SstReader::read_block`]
    /// checked and returned, into `block` without checking them again.
    pub(crate) fn load_cached(&self, i: usize, stored: &[u8], block: &mut Block) -> Result<()> {
        block.load_cached(stored).map_err(|e| self.block_error(i, e))
    }

    /// `e`, naming this file and block `i` if it is corruption.
    fn block_error(&self, i: usize, e: Error) -> Error {
        match e {
            Error::Corruption(d) => {
                Error::corruption(format!("{}: block {i}: {d}", self.path.display()))
            }
            other => other,
        }
    }

    /// Delete the backing file (called when the SST leaves the version set).
    pub fn delete_file(&self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Streaming SST writer: feed sorted entries, get a reader back (format
/// v3: variable-length keys, entry flags, tombstone support). `width` is the canonical filter-training width, not a key
/// length constraint: keys of any non-zero length are accepted, and each
/// is NUL-padded/truncated to `width` bytes before feeding the filter.
///
/// Writes stream straight into `NNNNNNNN.sst`, and [`SstWriter::finish`]
/// syncs the file and its directory. A file becomes live only when the
/// store's `MANIFEST` lists it, after it is finished, so a crash mid-write
/// leaves an unlisted file that the next `Db::open` deletes.
pub struct SstWriter {
    id: u64,
    path: PathBuf,
    file: File,
    width: usize,
    block_size: usize,
    builder: VarBlockBuilder,
    index: Vec<BlockMeta>,
    offset: u64,
    /// Every entry key so far, canonicalized for the filter.
    keys: FilterKeys,
    /// The raw (unpadded) previous key, for the ordering assertion.
    last_raw_key: Vec<u8>,
    n_entries: u64,
    n_tombstones: u64,
}

impl SstWriter {
    /// Start a new SST `NNNNNNNN.sst` in `dir`. `width` must be in
    /// `1..=64`, the widths a reader accepts.
    pub fn create(dir: &Path, id: u64, width: usize, block_size: usize) -> Result<Self> {
        if width == 0 || width > INLINE_KEY_BYTES {
            return Err(Error::config("filter key width must be in 1..=64 bytes"));
        }
        let path = sst_path(dir, id);
        let file = File::create(&path)?;
        Ok(SstWriter {
            id,
            path,
            file,
            width,
            block_size,
            builder: VarBlockBuilder::new(),
            index: Vec::new(),
            offset: 0,
            keys: FilterKeys::new(width),
            last_raw_key: Vec::new(),
            n_entries: 0,
            n_tombstones: 0,
        })
    }

    /// Append a live entry; keys must arrive in strictly ascending order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.push(key, Some(value))
    }

    /// Append a tombstone entry for `key` (same ordering rules as
    /// [`SstWriter::add`]). The key still feeds the file's range filter:
    /// a probe for it must pass so the delete is seen before any older
    /// version of the key in a deeper level.
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        self.push(key, None)
    }

    /// Append one entry — `Some` = live value, `None` = tombstone — from
    /// borrowed bytes. [`SstWriter::add`] and [`SstWriter::delete`] are
    /// this with the value spelled out.
    pub fn push(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        debug_assert!(!key.is_empty(), "keys are non-empty");
        debug_assert!(
            self.n_entries == 0 || self.last_raw_key.as_slice() < key,
            "keys must be strictly ascending"
        );
        self.builder.add(key, value);
        self.keys.push(key);
        self.last_raw_key.clear();
        self.last_raw_key.extend_from_slice(key);
        self.n_entries += 1;
        if value.is_none() {
            self.n_tombstones += 1;
        }
        if self.builder.raw_len() >= self.block_size {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.builder.is_empty() {
            return Ok(());
        }
        let builder = std::mem::take(&mut self.builder);
        let (disk, first, last) = builder.finish();
        self.file.write_all(&disk)?;
        self.index.push(BlockMeta {
            first_key: first,
            last_key: last,
            offset: self.offset,
            len: disk.len() as u32,
        });
        self.offset += disk.len() as u64;
        Ok(())
    }

    /// Current on-disk size of the data section (used by compaction to
    /// split output files).
    pub fn bytes_written(&self) -> u64 {
        self.offset + self.builder.raw_len() as u64
    }

    /// Serialize the v3 block index: count, entries with length-prefixed
    /// boundary keys, trailing CRC-32.
    fn encode_index(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.index.len() * 48 + 4);
        out.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for m in &self.index {
            out.extend_from_slice(&(m.first_key.len() as u16).to_le_bytes());
            out.extend_from_slice(&m.first_key);
            out.extend_from_slice(&(m.last_key.len() as u16).to_le_bytes());
            out.extend_from_slice(&m.last_key);
            out.extend_from_slice(&m.offset.to_le_bytes());
            out.extend_from_slice(&m.len.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Finalize: build the per-file range filter from this SST's keys and
    /// the current sample-query queue (§6.1 "used in conjunction with the
    /// keys in each SST file to determine the optimal filter design for
    /// each SST file at construction time"), embed its encoding in the
    /// file's filter block, and write the index + footer so the file is
    /// fully self-describing, then sync it. Tombstone keys are part of the
    /// filter's key set (see the module docs for why).
    pub fn finish(
        mut self,
        factory: &dyn FilterFactory,
        queue: &QueryQueue,
        bits_per_key: f64,
        stats: &Stats,
    ) -> Result<SstReader> {
        self.flush_block()?;
        assert!(self.n_entries > 0, "empty SST");
        let (min_key, max_key) = match (self.index.first(), self.index.last()) {
            (Some(f), Some(l)) => (&f.first_key, &l.last_key),
            _ => return Err(Error::corruption("finish() on an SST with no blocks")),
        };

        let index_bytes = self.encode_index();

        let t0 = Instant::now();
        let (filter, trained_at) = self.keys.train(min_key, max_key, factory, queue, bits_per_key);
        if filter.is_some() {
            stats.filter_build_ns.add(t0.elapsed().as_nanos() as u64);
            stats.filters_built.inc();
        }
        let filter_bytes = encode_filter_block(filter.as_deref());

        self.file.write_all(&index_bytes)?;
        self.file.write_all(&filter_bytes)?;
        let footer = encode_footer(
            self.offset,
            index_bytes.len() as u64,
            filter_bytes.len() as u64,
            self.n_entries,
            self.n_tombstones,
            self.width,
        )?;
        self.file.write_all(&footer)?;
        self.file.sync_all()?;
        sync_dir(self.path.parent().unwrap_or(Path::new(".")))?;
        SstReader::open_trained(self.path, self.id, filter, trained_at, 0)
    }
}

/// A closed key range `[lo, hi]` in one shared allocation: every source of
/// one read clones the handle, not the bytes.
#[derive(Debug, Clone)]
pub struct KeyRange {
    /// `lo` followed by `hi`.
    bytes: Arc<[u8]>,
    /// Where `hi` starts in `bytes`.
    split: usize,
}

impl KeyRange {
    /// Copy `[lo, hi]` into one allocation. The bytes go in by two
    /// `memcpy`s, not one at a time: an unbounded range's upper bound is
    /// [`crate::config::MAX_KEY_BYTES`] long.
    pub fn new(lo: &[u8], hi: &[u8]) -> Self {
        let mut bytes: Arc<[u8]> = std::iter::repeat_n(0, lo.len() + hi.len()).collect();
        // lint: allow(no-panic): a freshly collected `Arc` has no other owner
        let (l, h) = Arc::get_mut(&mut bytes).unwrap().split_at_mut(lo.len());
        l.copy_from_slice(lo);
        h.copy_from_slice(hi);
        KeyRange { bytes, split: lo.len() }
    }

    /// The inclusive lower bound.
    pub fn lo(&self) -> &[u8] {
        &self.bytes[..self.split]
    }

    /// The inclusive upper bound.
    pub fn hi(&self) -> &[u8] {
        &self.bytes[self.split..]
    }
}

/// The one way to walk a file's entries: a forward cursor that stands on
/// one entry at a time, optionally clamped to a closed key range.
/// [`SstCursor::step`] moves it to the next in-range entry and
/// [`SstCursor::current`] borrows that entry from the block the cursor
/// walks, so nothing is copied per entry. The caller supplies the block
/// fetch — the block cache for foreground reads, the file itself for
/// compaction and re-training — which decodes into the cursor's one
/// [`Block`], reused for every block it visits; each block visited is
/// fetched exactly once.
pub struct SstCursor {
    sst: Arc<SstReader>,
    /// The closed clamp (`None` = the whole file).
    range: Option<KeyRange>,
    /// Has the cursor not been stepped yet? It then stands at its floor,
    /// and its first fetch applies `range`'s lower bound.
    unread: bool,
    /// The next block to fetch.
    block_idx: usize,
    /// Does the cursor stand on an entry of `block`? Not before the first
    /// step, nor after the last.
    on_entry: bool,
    /// One of the thread's spare blocks, given back when the cursor drops.
    block: Block,
}

impl Drop for SstCursor {
    fn drop(&mut self) {
        std::mem::take(&mut self.block).recycle();
    }
}

impl SstCursor {
    /// A cursor over every entry of `sst`, tombstones included.
    pub fn new(sst: Arc<SstReader>) -> Self {
        SstCursor::starting_at(sst, None, 0)
    }

    /// A cursor over the entries of `sst` with keys in `range`.
    pub fn bounded(sst: Arc<SstReader>, range: KeyRange) -> Self {
        let block_idx = sst.first_candidate_block(range.lo());
        SstCursor::starting_at(sst, Some(range), block_idx)
    }

    fn starting_at(sst: Arc<SstReader>, range: Option<KeyRange>, block_idx: usize) -> Self {
        let block = Block::spare();
        SstCursor { sst, range, unread: true, block_idx, on_entry: false, block }
    }

    /// The file this cursor walks.
    pub fn sst(&self) -> &Arc<SstReader> {
        &self.sst
    }

    /// Has the cursor not been stepped yet? No block has been read.
    pub fn is_unread(&self) -> bool {
        self.unread
    }

    /// The current entry's key. Before the first step that is the
    /// cursor's floor, `max(min_key, lo)`: no key it can yield sorts
    /// below it, so a merge can order an unread file without reading it.
    pub fn key(&self) -> &[u8] {
        if self.on_entry {
            self.block.key()
        } else {
            self.floor()
        }
    }

    /// The current entry as `(key, Some(value) | None)`, `None` marking a
    /// tombstone, borrowed from the cursor's block. A cursor standing on
    /// no entry (before the first step, after the last) reports its floor
    /// and no value.
    pub fn current(&self) -> (&[u8], Option<&[u8]>) {
        if self.on_entry {
            (self.block.key(), self.block.value())
        } else {
            (self.floor(), None)
        }
    }

    fn floor(&self) -> &[u8] {
        let min = self.sst.min_key.as_slice();
        self.range.as_ref().map_or(min, |r| min.max(r.lo()))
    }

    /// Move to the next in-range entry; `Ok(false)` once there is none.
    /// The first step reads the cursor's first block.
    pub fn step(
        &mut self,
        mut fetch: impl FnMut(&Arc<SstReader>, usize, &mut Block) -> Result<()>,
    ) -> Result<bool> {
        let hi = self.range.as_ref().map(KeyRange::hi);
        let mut on_entry = match (self.on_entry, self.unread) {
            (true, _) => self.block.step(),
            (false, true) => false,
            (false, false) => return Ok(false),
        };
        self.on_entry = false;
        while !on_entry {
            if self.block_idx >= self.sst.n_blocks()
                || hi
                    .is_some_and(|hi| self.sst.block_meta(self.block_idx).first_key.as_slice() > hi)
            {
                self.unread = false;
                return Ok(false);
            }
            fetch(&self.sst, self.block_idx, &mut self.block)?;
            self.block_idx += 1;
            on_entry = match self.range.as_ref().filter(|_| self.unread) {
                Some(range) => self.block.seek(range.lo()),
                None => self.block.step(),
            };
            self.unread = false;
        }
        if hi.is_some_and(|hi| self.block.key() > hi) {
            return Ok(false);
        }
        self.on_entry = true;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter_hook::ProteusFactory;
    use proteus_core::key::pad_key;
    use proteus_core::SampleQueries;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("proteus-sst-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_sample(dir: &Path, id: u64, n: u64) -> SstReader {
        let mut w = SstWriter::create(dir, id, 8, 4096).unwrap();
        for i in 0..n {
            w.add(&(i * 7).to_be_bytes(), &[i as u8; 32]).unwrap();
        }
        let stats = Stats::default();
        let queue = QueryQueue::new(16, 1);
        w.finish(&ProteusFactory::default(), &queue, 10.0, &stats).unwrap()
    }

    /// A Proteus factory that keeps every design it trained, and how each
    /// one's coarse stage is stored.
    #[derive(Default)]
    struct RecordingFactory(
        std::sync::Mutex<
            Vec<(
                proteus_core::model::proteus::ProteusDesign,
                Option<proteus_core::trie::CoarseEncoding>,
            )>,
        >,
    );

    impl FilterFactory for RecordingFactory {
        fn build(&self, keys: &KeySet, samples: &SampleQueries, m: u64) -> Box<dyn RangeFilter> {
            let filter = proteus_core::Proteus::train(keys, samples, m, &Default::default());
            self.0.lock().unwrap().push((filter.design(), filter.coarse_encoding()));
            Box::new(filter)
        }
        fn name(&self) -> String {
            "recording".to_string()
        }
    }

    #[test]
    fn a_filter_is_a_function_of_its_keys_and_the_queries_that_reach_it() {
        let dir = tmpdir("view");
        let mut s = 0x5EED_u64;
        let mut rng = move || {
            // splitmix64
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // A store's worth of uniform keys; the file holds the eighth of them
        // (and of the key space) that starts with bits 011.
        let all: Vec<u64> = (0..160_000).map(|_| rng()).collect();
        let mut mine: Vec<u64> = all.iter().copied().filter(|k| k >> 61 == 3).collect();
        mine.sort_unstable();
        mine.dedup();
        // The paper's Split workload over the whole store: half long uniform
        // ranges anywhere, half short ranges right above some key.
        let whole: Vec<(u64, u64)> = (0..4_000)
            .map(|i| {
                let (at, len) = if i % 2 == 0 {
                    (rng(), rng() % (1 << 15))
                } else {
                    (all[rng() as usize % all.len()] + 1 + rng() % (1 << 10), rng() % 32)
                };
                (at, at.saturating_add(len))
            })
            .collect();
        let (min, max) = (mine[0], *mine.last().unwrap());
        let reaching: Vec<(u64, u64)> =
            whole.iter().copied().filter(|&(lo, hi)| lo <= max && hi >= min).collect();
        assert!(reaching.len() > 300 && reaching.len() < 700, "{}", reaching.len());

        let build = |id: u64, queries: &[(u64, u64)]| {
            let queue = QueryQueue::new(20_000, 1);
            queue.seed(
                queries
                    .iter()
                    .map(|&(lo, hi)| (lo.to_be_bytes().to_vec(), hi.to_be_bytes().to_vec())),
            );
            let mut w = SstWriter::create(&dir, id, 8, 4096).unwrap();
            for k in &mine {
                w.add(&k.to_be_bytes(), &[7u8; 16]).unwrap();
            }
            let factory = RecordingFactory::default();
            let reader = w.finish(&factory, &queue, 10.0, &Stats::default()).unwrap();
            let design = factory.0.into_inner().unwrap()[0];
            let bytes = std::fs::read(dir.join(format!("{id:08}.sst"))).unwrap();
            let footer = &bytes[bytes.len() - SST_FOOTER_LEN as usize..];
            let off = u64::from_le_bytes(footer[16..24].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(footer[24..32].try_into().unwrap()) as usize;
            (reader, design, bytes[off..off + len].to_vec(), queue)
        };
        let (reader, (design, coarse), block_a, queue_a) = build(1, &whole);
        let (_, design_b, block_b, _) = build(2, &reaching);
        // The 7/8 of the queue that never reaches the file changes nothing.
        assert_eq!((design, coarse), design_b);
        assert!(block_a == block_b, "filter blocks differ");
        // Nothing in the file's own range can be told from its (uniform)
        // keys by their first bytes, and a third byte is out of reach: no
        // byte-aligned trie. Between the two, where a fair share of the
        // prefixes in the file's span hold no key, the long half of the
        // workload is told apart by a span bitmap.
        assert!(!design.trie_depth_bits.is_multiple_of(8), "{design:?}");
        assert!((17..24).contains(&design.trie_depth_bits), "{design:?}");
        assert_eq!(coarse, Some(proteus_core::trie::CoarseEncoding::SpanBitmap), "{design:?}");
        assert!(design.bloom_prefix_len > 55, "{design:?}");
        // And the model predicts what the file will observe: probe it with
        // what it is asked.
        let mut asked = queue_a.view(8, &min.to_be_bytes(), &max.to_be_bytes());
        asked.retain_empty(&KeySet::from_u64(&mine));
        let filter = reader.filter().unwrap();
        let fps = asked.asked.iter().filter(|(lo, hi)| filter.may_contain_range(lo, hi)).count();
        let observed = fps as f64 / asked.asked.len() as f64;
        assert!(
            (design.expected_fpr - observed).abs() < 0.05,
            "predicted {:.4}, observed {observed:.4} over {} queries",
            design.expected_fpr,
            asked.asked.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_writer_refuses_a_filter_width_no_reader_accepts() {
        let dir = tmpdir("width");
        for width in [0, INLINE_KEY_BYTES + 1] {
            assert!(matches!(SstWriter::create(&dir, 1, width, 4096), Err(Error::Config(_))));
        }
        assert!(SstWriter::create(&dir, 1, INLINE_KEY_BYTES, 4096).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_reopen_roundtrip_preserves_index_and_filter() {
        let dir = tmpdir("roundtrip");
        let written = write_sample(&dir, 3, 5_000);
        let stats = Stats::default();
        let reopened = SstReader::open(dir.join("00000003.sst"), 3).unwrap();
        assert_eq!(reopened.n_entries, written.n_entries);
        assert_eq!(reopened.n_tombstones, 0);
        assert_eq!(reopened.n_blocks(), written.n_blocks());
        assert_eq!(reopened.min_key, written.min_key);
        assert_eq!(reopened.max_key, written.max_key);
        assert_eq!(reopened.file_bytes, written.file_bytes);
        let f = reopened.filter().expect("persisted filter");
        let g = written.filter().unwrap();
        assert_eq!(f.size_bits(), g.size_bits());
        assert_eq!(f.name(), g.name());
        // Block payloads identical.
        let (mut x, mut y) = (Block::default(), Block::default());
        for b in 0..reopened.n_blocks() {
            let stored = reopened.read_block(b, &stats, &mut x).unwrap();
            assert_eq!(stored, written.read_block(b, &stats, &mut y).unwrap());
            assert_eq!(stored.len(), reopened.block_meta(b).len as usize);
            assert_eq!(x.len(), y.len());
            while x.step() {
                assert!(y.step());
                assert_eq!((x.key(), x.value()), (y.key(), y.value()));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tombstones_roundtrip_and_feed_the_filter() {
        let dir = tmpdir("tombstones");
        let stats = Stats::default();
        let queue = QueryQueue::new(16, 1);
        let mut w = SstWriter::create(&dir, 5, 8, 512).unwrap();
        for i in 0..1_000u64 {
            let k = (i * 9).to_be_bytes();
            if i % 3 == 0 {
                w.delete(&k).unwrap();
            } else {
                w.add(&k, &[i as u8; 24]).unwrap();
            }
        }
        let written = w.finish(&ProteusFactory::default(), &queue, 12.0, &stats).unwrap();
        assert_eq!(written.n_entries, 1_000);
        assert_eq!(written.n_tombstones, 334);

        let reopened = SstReader::open(dir.join("00000005.sst"), 5).unwrap();
        assert_eq!(reopened.n_tombstones, 334);
        // Tombstone keys must pass the filter: skipping a file that holds
        // a delete would resurrect the key from a deeper level.
        let f = reopened.filter().expect("filter");
        for i in (0..1_000u64).step_by(3) {
            assert!(f.may_contain(&(i * 9).to_be_bytes()), "tombstone key {i} filtered out");
        }
        // The cursor yields tombstones as None, in order.
        let fresh = Stats::default();
        let mut scan = SstCursor::new(Arc::new(reopened));
        let mut i = 0u64;
        while scan.step(|sst, b, block| sst.read_block(b, &fresh, block).map(drop)).unwrap() {
            let (k, v) = scan.current();
            assert_eq!(k, (i * 9).to_be_bytes());
            assert_eq!(v.is_none(), i.is_multiple_of(3), "entry {i}");
            i += 1;
        }
        assert_eq!(i, 1_000);
        let n_blocks = scan.sst().n_blocks() as u64;
        assert!(n_blocks > 1);
        assert_eq!(fresh.blocks_read.get(), n_blocks, "each block is fetched exactly once");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_filter_block_degrades_without_panicking() {
        let written = write_sample(&tmpdir("corrupt-filter"), 1, 2_000);
        let block_at = (written.file_bytes + written.index_len) as usize;
        let original = std::fs::read(&written.path).unwrap();
        // One byte flipped inside the filter block, and intact envelopes
        // under kind tags this build does not know: the retired tag 0 and a
        // future tag 42.
        let mut corrupt = original[block_at..block_at + written.filter_block_len].to_vec();
        corrupt[20] ^= 0xFF;
        let seal_raw = proteus_core::codec::seal_raw;
        for (what, block) in
            [("corrupt", corrupt), ("tag-0", seal_raw(0, &[])), ("tag-42", seal_raw(42, &[1, 2]))]
        {
            let dir = tmpdir(&format!("degraded-{what}"));
            let path = sst_path(&dir, 1);
            let mut bytes = original[..block_at].to_vec();
            bytes.extend_from_slice(&block);
            let (file_bytes, index_len) = (written.file_bytes, written.index_len);
            let (entries, tombstones) = (written.n_entries, written.n_tombstones);
            let footer =
                encode_footer(file_bytes, index_len, block.len() as u64, entries, tombstones, 8);
            bytes.extend_from_slice(&footer.unwrap());
            std::fs::write(&path, &bytes).unwrap();
            let reopened = SstReader::open(&path, 1).unwrap();
            assert!(reopened.filter().is_none(), "{what}: the file opens without a filter");
            assert_eq!(reopened.filter_block_len(), block.len(), "{what}");
            // The store opens it as well, counts it degraded, and lets every
            // probe through to the file's blocks.
            let levels = vec![vec![Arc::new(reopened)]];
            crate::manifest::store(&dir, &crate::db::Version { levels }).unwrap();
            let factory = Arc::new(ProteusFactory::default());
            let db = crate::Db::open(&dir, crate::DbConfig::default(), factory).unwrap();
            assert_eq!(db.stats().filters_degraded.get(), 1, "{what}");
            // Keys are the multiples of 7: these windows hold none.
            for i in 0..100u64 {
                assert!(!db.seek_u64(i * 70 + 1, i * 70 + 6).unwrap(), "{what}");
            }
            let s = db.stats().snapshot();
            assert_eq!((s.filter_false_positives, s.filter_negatives), (100, 0), "{what}");
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(written.path.parent().unwrap());
    }

    #[test]
    fn corrupt_index_or_footer_is_an_open_error() {
        let dir = tmpdir("corrupt-index");
        drop(write_sample(&dir, 1, 1_000));
        let path = dir.join("00000001.sst");
        let orig = std::fs::read(&path).unwrap();

        // Truncations anywhere in the meta section fail to open.
        for cut in [orig.len() - 1, orig.len() - SST_FOOTER_LEN as usize - 3, 10] {
            std::fs::write(&path, &orig[..cut]).unwrap();
            assert!(SstReader::open(&path, 1).is_err(), "cut {cut}");
        }
        // Index corruption is caught by the index CRC.
        let flen = orig.len();
        let index_off = u64::from_le_bytes(orig[flen - 64..flen - 56].try_into().unwrap()) as usize;
        let mut bad = orig.clone();
        bad[index_off + 6] ^= 1;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(SstReader::open(&path, 1), Err(Error::Corruption(_))));
        // A magic/version mismatch (version byte clobbered).
        let mut bad = orig.clone();
        bad[flen - 16] = 7; // footer offset 48: format version low byte
        std::fs::write(&path, &bad).unwrap();
        assert!(SstReader::open(&path, 1).is_err());
        // Files are self-describing: the filter width rides in the footer.
        std::fs::write(&path, &orig).unwrap();
        assert_eq!(SstReader::open(&path, 1).unwrap().filter_width(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn var_len_string_keys_roundtrip_with_filter_and_scan() {
        let dir = tmpdir("var-len");
        let stats = Stats::default();
        let queue = QueryQueue::new(16, 1);
        // URL-ish keys of wildly different lengths, incl. shared prefixes
        // that collide after truncation to the 8-byte filter width.
        let mut keys: Vec<Vec<u8>> = (0..800u32)
            .map(|i| {
                format!("http://host-{:03}.example.com/{}", i / 3, "p".repeat(i as usize % 9))
                    .into_bytes()
            })
            .collect();
        keys.push(vec![b'z'; 1024]);
        keys.push(vec![0x01]);
        keys.sort();
        keys.dedup();
        let mut w = SstWriter::create(&dir, 9, 8, 1024).unwrap();
        for (i, k) in keys.iter().enumerate() {
            if i % 7 == 2 {
                w.delete(k).unwrap();
            } else {
                w.add(k, &[i as u8; 5]).unwrap();
            }
        }
        let written = w.finish(&ProteusFactory::default(), &queue, 10.0, &stats).unwrap();
        assert_eq!(written.min_key, keys[0]);
        assert_eq!(written.max_key, *keys.last().unwrap());

        let reopened = SstReader::open(dir.join("00000009.sst"), 9).unwrap();
        assert_eq!(reopened.filter_width(), 8);
        assert_eq!(reopened.n_entries, keys.len() as u64);
        assert_eq!(reopened.min_key, written.min_key);
        assert_eq!(reopened.max_key, written.max_key);
        // Zero false negatives: every key (tombstones included) must pass
        // the filter when probed at the canonical width.
        let f = reopened.filter().expect("filter");
        for k in &keys {
            assert!(f.may_contain(&pad_key(k, 8)), "false negative for {k:?}");
        }
        // The cursor returns every raw key byte-exactly, in order.
        let fresh = Stats::default();
        let mut scan = SstCursor::new(Arc::new(reopened));
        let mut i = 0usize;
        while scan.step(|sst, b, block| sst.read_block(b, &fresh, block).map(drop)).unwrap() {
            let (k, v) = scan.current();
            assert_eq!(k, keys[i], "entry {i}");
            assert_eq!(v.is_none(), i % 7 == 2, "entry {i}");
            i += 1;
        }
        assert_eq!(i, keys.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
