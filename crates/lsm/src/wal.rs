//! Write-ahead log: the durability layer under the MemTable.
//!
//! Every write the store acks is first appended to a WAL *segment* as one
//! length-prefixed, CRC-32-checksummed **commit record** (a `put` or
//! `delete` is a one-op commit; a [`crate::WriteBatch`] is a single
//! multi-op record, which is what makes a batch all-or-nothing across a
//! crash). Segments pair 1:1 with MemTable generations:
//!
//! * the *active* segment `NNNNNNNN.wal` receives records for the active
//!   MemTable;
//! * MemTable rotation *seals* the segment — one final `fdatasync`, then a
//!   fresh segment is created for the new active table (sealed segments
//!   are therefore always fully durable, in every sync mode);
//! * when a flush finishes turning the frozen MemTable into
//!   a (synced) L0 SST, the sealed segment is deleted — its data now lives
//!   in the tree;
//! * [`crate::Db::open`] replays each surviving segment, in id order, into
//!   the table it held: every sealed one into a frozen table that flushes
//!   and deletes it as before the crash, the newest into the active table,
//!   its segment resumed ([`Wal::open`]) — no record is written again.
//!
//! ## Group commit
//!
//! Appends only buffer into the OS; durability comes from `fdatasync`,
//! scheduled by the configured [`SyncMode`]. Under `Always`, concurrent
//! committers use a leader/follower protocol: the first waiter becomes the
//! *leader*, snapshots the append frontier, releases the lock and issues a
//! single `fdatasync` that covers every record appended so far; followers
//! park on a condvar and are released in one wakeup. Thousands of writers
//! amortize one sync — the classic group commit.
//!
//! ## On-disk format (magic `PRWALv2\0`)
//!
//! ```text
//! [segment header: 16 bytes]
//!    0  8×u8 magic "PRWALv2\0"
//!    8  u32  max key bytes (the opener's key-length limit)
//!   12  u32  CRC-32 of bytes 0..12
//! [commit record]*
//!    u32 stored_len
//!    u32 CRC-32(stored)
//!    stored:
//!      u8 codec
//!      codec 0 (raw):      payload
//!      codec 1 (zero-RLE): u32 raw_len, token stream of the payload
//!    payload:
//!      u32 n_ops
//!      n_ops × ( u8 tag: 0 = put, 1 = delete;
//!                length-prefixed key;
//!                length-prefixed value   — puts only )
//! ```
//!
//! Integers are little-endian. The token stream is the SST blocks' zero-RLE
//! codec ([`crate::compress`]), as RocksDB's `wal_compression` runs its WAL
//! through the block compressor. A record is stored with codec 1 only when
//! that is shorter (`4 + stream < payload`): the §6.2 values, half zeros,
//! and the zero bytes of every length prefix make a put about half as long,
//! while a delete or a record of zero-free bytes stays raw. Each record is
//! still one `write`, so a process crash loses nothing under
//! [`SyncMode::Off`]. The encode buffers live under the WAL lock and are
//! reused, so an append allocates nothing once they have grown.
//!
//! Replay reads the header, the record framing and the payloads through
//! the `proteus-succinct` codec's [`ByteReader`]; keys and values are its
//! length-prefixed runs ([`WireWrite::put_bytes`] / [`ByteReader::bytes`]).
//! The CRC, which covers the codec byte and `raw_len`, is checked before
//! either is read, and [`crate::compress::decompress`] measures a stream
//! before it allocates, so a `raw_len` nothing wrote cannot size a buffer.
//! A `PRWALv1` segment (the raw records of earlier builds) is refused with
//! [`Error::Corruption`] naming the file.
//!
//! ## Replay semantics
//!
//! Replay ([`replay_segment`]) is *total*: it never panics on malformed
//! bytes. A **torn tail** — the file ends mid-record, or the final
//! record's checksum fails — is expected after a crash and recovers the
//! longest valid prefix of commits. Damage strictly *before* the last
//! record (a checksum mismatch with further bytes following, a damaged
//! header) is mid-log corruption, and so is any CRC-valid record that does
//! not decode (an unknown codec, a token stream that does not decode to
//! its `raw_len`, a bad tag, trailing garbage): either fails the open with
//! [`Error::Corruption`]: the prefix can no
//! longer be trusted. A corrupted length field cannot be distinguished
//! from a torn write when it points past end-of-file; that case truncates,
//! like every append-only log.

use crate::compress;
use crate::config::SyncMode;
use crate::error::{Error, Result};
use crate::sst::sync_dir;
use proteus_core::codec::{crc32, ByteReader, CodecError, WireWrite};
use proteus_core::sync::{rank, Condvar, Mutex, MutexGuard};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Leading magic of every WAL segment.
pub const WAL_MAGIC: [u8; 8] = *b"PRWALv2\0";

/// Fixed segment header size in bytes (magic + max key bytes + CRC-32).
pub const WAL_HEADER_LEN: u64 = 16;

/// Commit-record op tag: a live put (key + value follow).
pub const WAL_TAG_PUT: u8 = 0;

/// Commit-record op tag: a tombstone (key follows).
pub const WAL_TAG_DELETE: u8 = 1;

/// Record codec: the payload follows as it is.
pub const WAL_CODEC_RAW: u8 = 0;

/// Record codec: `u32 raw_len`, then the payload's zero-RLE token stream.
pub const WAL_CODEC_ZERO_RLE: u8 = 1;

/// Bytes of a record before its stored bytes: `stored_len` and the CRC.
const RECORD_HEADER_LEN: usize = 8;

/// An encode buffer that grew past this is dropped after its append, so
/// one huge batch does not pin its size for the life of the store.
const RETAINED_BUFFER_BYTES: usize = 1 << 20;

/// One logged operation: `Some(value)` = put, `None` = delete, exactly the
/// shape the MemTable applies.
pub type WalOp = (Vec<u8>, Option<Vec<u8>>);

/// Path of segment `id` inside `dir` (`NNNNNNNN.wal`; ids share the SST
/// id space, so a segment and an SST never collide on a stem).
pub fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("{id:08}.wal"))
}

/// Durably remove segment `id` from `dir` (unlink + directory sync).
pub fn delete_segment(dir: &Path, id: u64) -> Result<()> {
    std::fs::remove_file(segment_path(dir, id))?;
    sync_dir(dir)?;
    Ok(())
}

/// List the WAL segments in `dir`, sorted ascending by id (= MemTable
/// generation order: the active segment is always the largest id).
/// Non-numeric or differently-suffixed files are foreign and skipped.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("wal") {
            continue;
        }
        if let Some(id) = path.file_stem().and_then(|s| s.to_str()).and_then(|s| s.parse().ok()) {
            segments.push((id, path));
        }
    }
    segments.sort_by_key(|(id, _)| *id);
    Ok(segments)
}

fn bad(path: &Path, what: impl std::fmt::Display) -> Error {
    Error::corruption(format!("{}: {what}", path.display()))
}

/// The wire length prefixes are u32: a count or payload over `u32::MAX`
/// cannot be represented, so the encoder refuses instead of truncating.
fn wire_u32(n: usize, what: &str) -> Result<u32> {
    u32::try_from(n).map_err(|_| Error::corruption(format!("{what} {n} exceeds u32::MAX")))
}

/// Encode one commit record for `ops` into `record` (length prefix, CRC-32,
/// stored bytes), with `payload` as scratch. Both buffers are cleared, not
/// replaced, so an append allocates nothing once they have grown.
fn encode_record<K: AsRef<[u8]>, V: AsRef<[u8]>>(
    ops: &[(K, Option<V>)],
    payload: &mut Vec<u8>,
    record: &mut Vec<u8>,
) -> Result<()> {
    payload.clear();
    payload.put_u32(wire_u32(ops.len(), "op count")?);
    for (key, value) in ops {
        match value {
            Some(v) => {
                payload.put_u8(WAL_TAG_PUT);
                payload.put_bytes(key.as_ref());
                payload.put_bytes(v.as_ref());
            }
            None => {
                payload.put_u8(WAL_TAG_DELETE);
                payload.put_bytes(key.as_ref());
            }
        }
    }
    record.clear();
    record.resize(RECORD_HEADER_LEN, 0);
    record.put_u8(WAL_CODEC_ZERO_RLE);
    record.put_u32(wire_u32(payload.len(), "record payload length")?);
    let stream_at = record.len();
    // Codec 1 only when the stream and its `raw_len` beat the payload.
    if !compress::compress(payload, record) || record.len() - stream_at + 4 >= payload.len() {
        record.truncate(RECORD_HEADER_LEN);
        record.put_u8(WAL_CODEC_RAW);
        record.extend_from_slice(payload);
    }
    let (header, stored) = record.split_at_mut(RECORD_HEADER_LEN);
    header[..4].copy_from_slice(&wire_u32(stored.len(), "record length")?.to_le_bytes());
    header[4..].copy_from_slice(&crc32(stored).to_le_bytes());
    Ok(())
}

/// The result of replaying one segment.
#[derive(Debug)]
pub struct SegmentReplay {
    /// The recovered commits, in append order. Each inner `Vec` is one
    /// atomic commit (a `WriteBatch` replays as a unit or not at all).
    pub commits: Vec<Vec<WalOp>>,
    /// Whether the segment ended in a torn (incomplete or
    /// checksum-failed) final record that was discarded. Expected after a
    /// crash; the commits before it are intact.
    pub torn_tail: bool,
    /// Bytes of the segment that replayed — the header and every whole
    /// commit — where [`Wal::open`] resumes appending.
    pub valid_len: u64,
}

/// Replay a segment file. Torn tails truncate (see the module docs);
/// mid-log damage is [`Error::Corruption`].
/// `expected_max` must match the key-length limit recorded in the segment
/// header; every logged key must be non-empty and within the limit.
pub fn replay_segment(path: &Path, expected_max: usize) -> Result<SegmentReplay> {
    let bytes = std::fs::read(path)?;
    let torn =
        |commits, at: usize| Ok(SegmentReplay { commits, torn_tail: true, valid_len: at as u64 });
    if (bytes.len() as u64) < WAL_HEADER_LEN {
        // A crash during segment creation: the header never fully hit the
        // disk, so no record can have been acked against this file.
        return torn(Vec::new(), 0);
    }
    let codec = |e: CodecError| bad(path, e);
    let mut r = ByteReader::new(&bytes);
    let magic = r.take(WAL_MAGIC.len()).map_err(codec)?;
    if magic != WAL_MAGIC {
        // Another generation is named (`PRWALv1` held raw records), so the
        // operator learns it is an old file, not bit rot.
        if magic.starts_with(&WAL_MAGIC[..6]) {
            let name = String::from_utf8_lossy(&magic[..7]);
            return Err(bad(
                path,
                format!("{name} segment, written by an earlier build (only PRWALv2)"),
            ));
        }
        return Err(bad(path, "bad WAL magic"));
    }
    let max = r.u32().map_err(codec)? as usize;
    if crc32(&bytes[0..12]) != r.u32().map_err(codec)? {
        return Err(bad(path, "WAL header checksum mismatch"));
    }
    if max != expected_max {
        return Err(bad(path, format!("max key bytes {max} != configured {expected_max}")));
    }
    let mut commits = Vec::new();
    while !r.is_empty() {
        let pos = bytes.len() - r.remaining();
        // A torn length prefix, or a record claiming bytes past EOF: a
        // write cut mid-record (or an unrecognizably corrupted length —
        // indistinguishable).
        let (Ok(len), Ok(crc)) = (r.u32(), r.u32()) else { return torn(commits, pos) };
        let Ok(stored) = r.take(len as usize) else { return torn(commits, pos) };
        if crc32(stored) != crc {
            if r.is_empty() {
                // Checksum failure in the final record = partially written
                // payload: the classic torn tail. Drop it.
                return torn(commits, pos);
            }
            return Err(bad(path, format!("mid-log checksum mismatch at byte {pos}")));
        }
        commits.push(
            decode_stored(stored, expected_max)
                .map_err(|e| bad(path, format!("commit {} at byte {pos}: {e}", commits.len())))?,
        );
    }
    Ok(SegmentReplay { commits, torn_tail: false, valid_len: bytes.len() as u64 })
}

/// Decode a CRC-valid record's stored bytes. Any failure here is
/// corruption: the checksum proved the bytes are exactly what was written,
/// so a structural error cannot be a torn write.
fn decode_stored(stored: &[u8], max: usize) -> std::result::Result<Vec<WalOp>, String> {
    let mut r = ByteReader::new(stored);
    let err = |e: CodecError| e.to_string();
    match r.u8().map_err(err)? {
        WAL_CODEC_RAW => decode_payload(r.take(r.remaining()).map_err(err)?, max),
        WAL_CODEC_ZERO_RLE => {
            let raw_len = r.u32().map_err(err)? as usize;
            let stream = r.take(r.remaining()).map_err(err)?;
            let payload = compress::decompress(stream, raw_len)
                .ok_or_else(|| format!("zero-RLE stream does not decode to {raw_len} bytes"))?;
            decode_payload(&payload, max)
        }
        c => Err(format!("unknown record codec {c:#04x}")),
    }
}

/// Decode a commit payload (the ops, uncompressed).
fn decode_payload(payload: &[u8], max: usize) -> std::result::Result<Vec<WalOp>, String> {
    let mut r = ByteReader::new(payload);
    let err = |e: CodecError| e.to_string();
    let n = r.u32().map_err(err)? as usize;
    let mut ops = Vec::with_capacity(n.min(payload.len()));
    for i in 0..n {
        let tag = r.u8().map_err(err)?;
        let key = r.bytes().map_err(err)?.to_vec();
        if key.is_empty() || key.len() > max {
            return Err(format!("op {i}: key length {} outside 1..={max}", key.len()));
        }
        match tag {
            WAL_TAG_PUT => {
                let value = r.bytes().map_err(err)?.to_vec();
                ops.push((key, Some(value)));
            }
            WAL_TAG_DELETE => ops.push((key, None)),
            t => return Err(format!("op {i}: unknown tag {t:#04x}")),
        }
    }
    if n == 0 {
        return Err("empty commit record".into());
    }
    r.finish().map_err(err)?;
    Ok(ops)
}

/// Mutable segment state behind the [`Wal`] lock.
struct WalInner {
    /// Active segment file, shared so a group-commit leader can sync it
    /// with the lock released.
    file: Arc<File>,
    /// Active segment id.
    id: u64,
    /// Bumped on every rotation; guards byte-offset bookkeeping against a
    /// leader whose sync raced a segment swap.
    generation: u64,
    /// Commits appended, across all segments (the commit sequence).
    appended_seq: u64,
    /// Commits covered by a completed sync (or by a seal, which syncs).
    synced_seq: u64,
    /// Bytes appended to the *active* segment, header included.
    appended_bytes: u64,
    /// Bytes of the active segment known durable (the power-loss horizon;
    /// see [`Wal::truncate_unsynced`]).
    synced_bytes: u64,
    /// A group-commit leader is mid-`fdatasync` with the lock released.
    syncing: bool,
    /// When the last sync completed (drives [`SyncMode::Interval`]).
    last_sync: Instant,
    /// Encode scratch: the uncompressed payload of the record being
    /// appended.
    payload: Vec<u8>,
    /// The record being appended, framed and ready to write.
    record: Vec<u8>,
}

/// The write-ahead log of one open [`crate::Db`]: an active segment plus
/// the group-commit machinery. All methods take `&self`; internal state is
/// behind a mutex. Appends must be externally ordered with MemTable
/// application (the `Db` holds its MemTable write lock across
/// [`Wal::append_commit`]), while [`Wal::commit`] runs lock-free of the
/// MemTable so syncs batch across writers.
pub struct Wal {
    dir: PathBuf,
    max_key_bytes: usize,
    mode: SyncMode,
    inner: Mutex<WalInner>,
    /// Parks group-commit followers until the leader's sync covers them.
    sync_cv: Condvar,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").field("dir", &self.dir).field("mode", &self.mode).finish()
    }
}

/// Create a segment file with a synced header, making the file itself
/// durable (header write + file sync + directory sync).
fn create_segment(dir: &Path, id: u64, max_key_bytes: usize) -> Result<File> {
    let path = segment_path(dir, id);
    let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
    header.extend_from_slice(&WAL_MAGIC);
    header.put_u32(wire_u32(max_key_bytes, "max key bytes")?);
    let crc = crc32(&header);
    header.put_u32(crc);
    let mut file = File::options().write(true).create_new(true).open(&path)?;
    file.write_all(&header)?;
    file.sync_all()?;
    sync_dir(dir)?;
    Ok(file)
}

impl Wal {
    /// Open a fresh active segment `id` in `dir`.
    pub fn create(dir: &Path, id: u64, max_key_bytes: usize, mode: SyncMode) -> Result<Wal> {
        Wal::open(dir, id, None, max_key_bytes, mode)
    }

    /// Open segment `id` of `dir` as the active one: a fresh segment, or,
    /// with `resume_at`, an existing one whose replay found that many bytes
    /// whole — a torn tail past them is cut and the rest synced, so appends
    /// extend a log that replays whole.
    pub fn open(
        dir: &Path,
        id: u64,
        resume_at: Option<u64>,
        max_key_bytes: usize,
        mode: SyncMode,
    ) -> Result<Wal> {
        let (file, len) = match resume_at {
            None => (create_segment(dir, id, max_key_bytes)?, WAL_HEADER_LEN),
            Some(len) => {
                let file = File::options().append(true).open(segment_path(dir, id))?;
                file.set_len(len)?;
                file.sync_all()?;
                (file, len)
            }
        };
        Ok(Wal {
            dir: dir.to_path_buf(),
            max_key_bytes,
            mode,
            inner: Mutex::new(
                rank::WAL,
                WalInner {
                    file: Arc::new(file),
                    id,
                    generation: 0,
                    appended_seq: 0,
                    synced_seq: 0,
                    appended_bytes: len,
                    synced_bytes: len,
                    syncing: false,
                    last_sync: Instant::now(),
                    payload: Vec::new(),
                    record: Vec::new(),
                },
            ),
            sync_cv: Condvar::new(),
        })
    }

    fn lock(&self) -> Result<MutexGuard<'_, WalInner>> {
        self.inner.lock().map_err(|_| Error::Poisoned("wal lock"))
    }

    /// Append one commit record for `ops` and return its sequence number
    /// (to pass to [`Wal::commit`]). The bytes reach the OS before this
    /// returns; durability is [`Wal::commit`]'s job. The caller must hold
    /// its MemTable write lock so WAL order equals apply order. An empty
    /// `ops` appends nothing. Keys and values are borrowed: the record is
    /// encoded into buffers the WAL keeps, so this allocates nothing once
    /// they have grown.
    pub fn append_commit<K: AsRef<[u8]>, V: AsRef<[u8]>>(
        &self,
        ops: &[(K, Option<V>)],
        stats: &crate::Stats,
    ) -> Result<u64> {
        let mut guard = self.lock()?;
        let g = &mut *guard;
        if ops.is_empty() {
            return Ok(g.appended_seq);
        }
        encode_record(ops, &mut g.payload, &mut g.record)?;
        (&*g.file).write_all(&g.record)?;
        let len = g.record.len() as u64;
        g.appended_seq += 1;
        g.appended_bytes += len;
        stats.wal_appends.inc();
        stats.wal_bytes.add(len);
        if g.payload.capacity() > RETAINED_BUFFER_BYTES {
            g.payload = Vec::new();
            g.record = Vec::new();
        }
        Ok(g.appended_seq)
    }

    /// Make commit `seq` durable according to the configured [`SyncMode`]:
    /// `Always` group-syncs until `seq` is covered, `Interval` syncs only
    /// when the deadline has passed, `Off` returns immediately.
    pub fn commit(&self, seq: u64, stats: &crate::Stats) -> Result<()> {
        match self.mode {
            SyncMode::Always => self.sync_to(seq, stats),
            SyncMode::Interval(period) => {
                let due = {
                    let g = self.lock()?;
                    !g.syncing && g.synced_seq < g.appended_seq && g.last_sync.elapsed() >= period
                };
                if due {
                    self.sync(stats)?;
                }
                Ok(())
            }
            SyncMode::Off => Ok(()),
        }
    }

    /// Full durability barrier: sync every record appended so far,
    /// regardless of mode.
    pub fn sync(&self, stats: &crate::Stats) -> Result<()> {
        let target = self.lock()?.appended_seq;
        self.sync_to(target, stats)
    }

    /// Group commit: block until `min_seq` is durable. The first waiter
    /// becomes the leader and issues one `fdatasync` covering the whole
    /// append frontier; followers wait on the condvar. Appends continue
    /// concurrently (the lock is released during the sync) — the leader
    /// only claims the frontier it snapshotted.
    fn sync_to(&self, min_seq: u64, stats: &crate::Stats) -> Result<()> {
        let mut g = self.lock()?;
        loop {
            if g.synced_seq >= min_seq {
                return Ok(());
            }
            if g.syncing {
                g = self.sync_cv.wait(g).map_err(|_| Error::Poisoned("wal lock"))?;
                continue;
            }
            g.syncing = true;
            let target_seq = g.appended_seq;
            let target_bytes = g.appended_bytes;
            let generation = g.generation;
            let file = Arc::clone(&g.file);
            drop(g);
            let res = file.sync_data();
            g = self.lock()?;
            g.syncing = false;
            self.sync_cv.notify_all();
            res?;
            if g.synced_seq < target_seq {
                stats.wal_syncs.inc();
                stats.group_commit_sizes.add(target_seq - g.synced_seq);
                g.synced_seq = target_seq;
            }
            if g.generation == generation {
                g.synced_bytes = g.synced_bytes.max(target_bytes);
                g.last_sync = Instant::now();
            }
        }
    }

    /// Seal the active segment and start a new one for the next MemTable
    /// generation; returns the sealed segment's id. The seal syncs the old
    /// file in *every* mode, so sealed segments are always fully durable.
    /// The caller must hold its MemTable write lock (no concurrent
    /// appenders; a leader mid-sync on the old file is harmless).
    pub fn rotate(&self, new_id: u64, stats: &crate::Stats) -> Result<u64> {
        let mut g = self.lock()?;
        g.file.sync_data()?;
        let sealed_commits = g.appended_seq - g.synced_seq;
        // Count the seal as a WAL sync only when it actually covered
        // commits: an empty seal (every record already group-synced)
        // contributes nothing to `group_commit_sizes`, so counting it in
        // `wal_syncs` would deflate `mean_group_commit()` — the
        // denominator would grow while the numerator stood still. Empty
        // seals are tracked separately so rotation frequency stays
        // observable.
        if sealed_commits > 0 {
            stats.group_commit_sizes.add(sealed_commits);
            stats.wal_syncs.inc();
        } else {
            stats.wal_empty_seals.inc();
        }
        g.synced_seq = g.appended_seq;
        let file = create_segment(&self.dir, new_id, self.max_key_bytes)?;
        let old_id = g.id;
        g.file = Arc::new(file);
        g.id = new_id;
        g.generation += 1;
        g.appended_bytes = WAL_HEADER_LEN;
        g.synced_bytes = WAL_HEADER_LEN;
        g.last_sync = Instant::now();
        // Followers parked in sync_to: the seal covered their commits.
        self.sync_cv.notify_all();
        Ok(old_id)
    }

    /// Crash-test support: discard every byte of the *active* segment that
    /// was never covered by a sync, simulating the page cache lost to a
    /// power failure. (Sealed segments are synced at seal time and are
    /// unaffected.) Used by `Db::crash_power_loss`.
    pub fn truncate_unsynced(&self) -> Result<()> {
        let g = self.lock()?;
        g.file.set_len(g.synced_bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stats;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("proteus-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn k(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    fn del(i: u64) -> WalOp {
        (k(i), None)
    }

    #[test]
    fn roundtrip_commits_across_modes() {
        for mode in [
            SyncMode::Always,
            SyncMode::Interval(std::time::Duration::from_millis(5)),
            SyncMode::Off,
        ] {
            let dir = tmpdir(&format!("rt-{mode:?}").replace(['(', ')', ' ', '.'], "-"));
            let stats = Stats::default();
            let wal = Wal::create(&dir, 7, 8, mode).unwrap();
            let seq1 = wal.append_commit(&[(k(1), Some(b"one".to_vec()))], &stats).unwrap();
            wal.commit(seq1, &stats).unwrap();
            let batch: Vec<WalOp> =
                vec![(k(2), Some(b"two".to_vec())), (k(1), None), (k(3), Some(vec![0; 100]))];
            let seq2 = wal.append_commit(&batch, &stats).unwrap();
            wal.commit(seq2, &stats).unwrap();
            wal.sync(&stats).unwrap();
            drop(wal);

            let rep = replay_segment(&segment_path(&dir, 7), 8).unwrap();
            assert!(!rep.torn_tail);
            assert_eq!(rep.commits.len(), 2);
            assert_eq!(rep.commits[0], vec![(k(1), Some(b"one".to_vec()))]);
            assert_eq!(rep.commits[1], batch);
            assert_eq!(stats.wal_appends.get(), 2);
            assert!(stats.wal_bytes.get() > 0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn torn_tail_recovers_the_prefix_at_every_cut() {
        let dir = tmpdir("torn");
        let stats = Stats::default();
        let wal = Wal::create(&dir, 1, 8, SyncMode::Off).unwrap();
        for i in 0..5u64 {
            wal.append_commit(&[(k(i), Some(vec![i as u8; 9]))], &stats).unwrap();
        }
        wal.sync(&stats).unwrap();
        drop(wal);
        let path = segment_path(&dir, 1);
        let full = std::fs::read(&path).unwrap();
        let complete = replay_segment(&path, 8).unwrap().commits;
        assert_eq!(complete.len(), 5);
        let cut_path = dir.join("cut.wal.probe");
        let mut last_n = 5;
        for cut in (0..full.len()).rev() {
            std::fs::write(&cut_path, &full[..cut]).unwrap();
            let rep = replay_segment(&cut_path, 8).unwrap();
            assert!(rep.commits.len() <= last_n, "prefix must shrink monotonically");
            last_n = rep.commits.len();
            assert_eq!(rep.commits, complete[..rep.commits.len()], "cut {cut}: not a prefix");
        }
        assert_eq!(last_n, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_flip_is_corruption_last_record_flip_is_torn() {
        let dir = tmpdir("flip");
        let stats = Stats::default();
        let wal = Wal::create(&dir, 2, 8, SyncMode::Off).unwrap();
        for i in 0..3u64 {
            wal.append_commit(&[(k(i), Some(vec![0x55; 16]))], &stats).unwrap();
        }
        wal.sync(&stats).unwrap();
        drop(wal);
        let path = segment_path(&dir, 2);
        let orig = std::fs::read(&path).unwrap();
        let rec_len = (orig.len() - WAL_HEADER_LEN as usize) / 3;

        // Flip a payload byte of the first record (two intact records
        // follow): the prefix is untrustworthy — typed corruption.
        let mut bytes = orig.clone();
        bytes[WAL_HEADER_LEN as usize + 12] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(replay_segment(&path, 8), Err(Error::Corruption(_))));

        // The same flip in the *final* record is indistinguishable from a
        // torn write: drop it, keep the prefix.
        let mut bytes = orig.clone();
        bytes[orig.len() - rec_len + 12] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let rep = replay_segment(&path, 8).unwrap();
        assert!(rep.torn_tail);
        assert_eq!(rep.commits.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_damage_is_typed_and_width_is_enforced() {
        let dir = tmpdir("header");
        let stats = Stats::default();
        let wal = Wal::create(&dir, 3, 8, SyncMode::Off).unwrap();
        wal.append_commit(&[del(9)], &stats).unwrap();
        wal.sync(&stats).unwrap();
        drop(wal);
        let path = segment_path(&dir, 3);
        let orig = std::fs::read(&path).unwrap();
        // Wrong magic.
        let mut bytes = orig.clone();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(replay_segment(&path, 8), Err(Error::Corruption(_))));
        // Header checksum mismatch (width field flipped).
        let mut bytes = orig.clone();
        bytes[8] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(replay_segment(&path, 8), Err(Error::Corruption(_))));
        // Key-length-limit mismatch against the opener's configuration.
        std::fs::write(&path, &orig).unwrap();
        assert!(matches!(replay_segment(&path, 16), Err(Error::Corruption(_))));
        // Sub-header file: a crash during create — empty, torn, no error.
        std::fs::write(&path, &orig[..7]).unwrap();
        let rep = replay_segment(&path, 8).unwrap();
        assert!(rep.torn_tail && rep.commits.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_resumed_segment_loses_its_torn_tail_and_replays_whole() {
        let dir = tmpdir("reopen");
        let stats = Stats::default();
        let wal = Wal::create(&dir, 5, 8, SyncMode::Off).unwrap();
        for i in 0..3u64 {
            wal.append_commit(&[(k(i), Some(vec![i as u8; 4]))], &stats).unwrap();
        }
        drop(wal);
        let path = segment_path(&dir, 5);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap(); // a crash tore the last record
        let rep = replay_segment(&path, 8).unwrap();
        assert!(rep.torn_tail && rep.commits.len() == 2);
        // Appending after the torn bytes would make them mid-log damage.
        let wal = Wal::open(&dir, 5, Some(rep.valid_len), 8, SyncMode::Off).unwrap();
        wal.append_commit(&[del(9)], &stats).unwrap();
        drop(wal);
        let rep = replay_segment(&path, 8).unwrap();
        assert!(!rep.torn_tail);
        assert_eq!(rep.commits.len(), 3);
        assert_eq!(rep.commits[1], vec![(k(1), Some(vec![1; 4]))]);
        assert_eq!(rep.commits[2], vec![(k(9), None)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_durably_and_ids_advance() {
        let dir = tmpdir("rotate");
        let stats = Stats::default();
        let wal = Wal::create(&dir, 10, 8, SyncMode::Off).unwrap();
        wal.append_commit(&[(k(1), Some(vec![1]))], &stats).unwrap();
        let sealed = wal.rotate(11, &stats).unwrap();
        assert_eq!(sealed, 10);
        wal.append_commit(&[(k(2), Some(vec![2]))], &stats).unwrap();
        // Power loss now: the sealed segment keeps its record (seal
        // syncs), the unsynced active record vanishes.
        wal.truncate_unsynced().unwrap();
        drop(wal);
        let rep = replay_segment(&segment_path(&dir, 10), 8).unwrap();
        assert_eq!(rep.commits.len(), 1, "sealed segment must survive power loss");
        let rep = replay_segment(&segment_path(&dir, 11), 8).unwrap();
        assert_eq!(rep.commits.len(), 0, "unsynced active record must be gone");
        assert!(stats.wal_syncs.get() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_seals_do_not_deflate_mean_group_commit() {
        let dir = tmpdir("empty-seal");
        let stats = Stats::default();
        let wal = Wal::create(&dir, 20, 8, SyncMode::Always).unwrap();
        // Four commits, each paying its own sync: mean group commit 1.0.
        for i in 0..4u64 {
            let seq = wal.append_commit(&[(k(i), Some(vec![i as u8]))], &stats).unwrap();
            wal.commit(seq, &stats).unwrap();
        }
        assert_eq!(stats.wal_syncs.get(), 4);
        assert_eq!(stats.group_commit_sizes.get(), 4);
        assert!((stats.snapshot().mean_group_commit() - 1.0).abs() < 1e-12);
        // Two rotations with nothing unsynced (everything was group-synced
        // at commit time). Before the fix each bumped `wal_syncs` without
        // touching `group_commit_sizes`, deflating the mean to 4/6 ≈ 0.67.
        wal.rotate(21, &stats).unwrap();
        wal.rotate(22, &stats).unwrap();
        assert_eq!(stats.wal_syncs.get(), 4, "empty seals are not commit-covering syncs");
        assert_eq!(stats.wal_empty_seals.get(), 2);
        assert!((stats.snapshot().mean_group_commit() - 1.0).abs() < 1e-12);
        // A rotation that *does* seal unsynced commits still counts.
        wal.append_commit(&[del(9)], &stats).unwrap();
        wal.rotate(23, &stats).unwrap();
        assert_eq!(stats.wal_syncs.get(), 5);
        assert_eq!(stats.group_commit_sizes.get(), 5);
        assert_eq!(stats.wal_empty_seals.get(), 2);
        assert!((stats.snapshot().mean_group_commit() - 1.0).abs() < 1e-12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_covers_concurrent_writers_with_few_syncs() {
        let dir = tmpdir("group");
        let stats = Stats::default();
        let wal = Arc::new(Wal::create(&dir, 4, 8, SyncMode::Always).unwrap());
        let n_threads = 8u64;
        let per = 40u64;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let wal = Arc::clone(&wal);
                let stats = &stats;
                s.spawn(move || {
                    for i in 0..per {
                        let key = k(t * 1000 + i);
                        let seq = wal.append_commit(&[(key, Some(vec![t as u8]))], stats).unwrap();
                        wal.commit(seq, stats).unwrap();
                    }
                });
            }
        });
        assert_eq!(stats.wal_appends.get(), n_threads * per);
        // Every commit was covered by some sync, and the group accounting
        // balances exactly.
        assert_eq!(stats.group_commit_sizes.get(), n_threads * per);
        assert!(stats.wal_syncs.get() >= 1);
        assert!(stats.wal_syncs.get() <= n_threads * per);
        let rep = replay_segment(&segment_path(&dir, 4), 8).unwrap();
        assert_eq!(rep.commits.len(), (n_threads * per) as usize);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
