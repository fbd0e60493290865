//! The `MANIFEST`: the one record of which SST files are live, and at which
//! level — magic `PRMANv1\0`, then `(u64 id, u32 level)` per live file in
//! `Version` order (L0 oldest first), then a CRC-32 of every byte before it,
//! all little-endian. Each edit (`store`, under the worker lock) rewrites
//! the whole snapshot — tens of entries — through `MANIFEST.tmp`, a sync, a
//! rename and a directory sync, so a crash leaves the old or the new one
//! whole, with no log to replay or compact. A job writes its files before
//! the edit that lists them and unlinks its inputs only after it, so a crash
//! leaves at most unlisted files, which `recover` deletes.

use crate::db::Version;
use crate::error::{Error, Result};
use crate::sst::{self, SstReader};
use crate::stats::Stats;
use proteus_core::codec::{crc32, ByteReader};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// Leading magic of the `MANIFEST` file.
pub const MANIFEST_MAGIC: [u8; 8] = *b"PRMANv1\0";

/// Durably replace `dir`'s `MANIFEST` with the live set of `v`.
pub(crate) fn store(dir: &Path, v: &Version) -> Result<()> {
    let mut bytes = MANIFEST_MAGIC.to_vec();
    for (level, files) in v.levels.iter().enumerate() {
        for sst in files {
            bytes.extend_from_slice(&sst.id.to_le_bytes());
            bytes.extend_from_slice(&(level as u32).to_le_bytes());
        }
    }
    bytes.extend_from_slice(&crc32(&bytes).to_le_bytes());
    let tmp_path = dir.join("MANIFEST.tmp");
    let mut tmp = std::fs::File::create(&tmp_path)?;
    tmp.write_all(&bytes)?;
    sst::publish(&tmp, &tmp_path, &dir.join("MANIFEST"))
}

/// The `(id, level)` entries of a `MANIFEST`, in order; any damage is
/// [`Error::Corruption`], never a panic.
fn decode(bytes: &[u8], path: &Path) -> Result<Vec<(u64, u32)>> {
    let bad = |what: &str| Error::corruption(format!("{}: {what}", path.display()));
    let (body, crc) = bytes.split_at(bytes.len().saturating_sub(4));
    if !body.starts_with(&MANIFEST_MAGIC) {
        return Err(bad("bad MANIFEST magic"));
    }
    if crc32(body).to_le_bytes()[..] != *crc {
        return Err(bad("MANIFEST checksum mismatch"));
    }
    let mut r = ByteReader::new(&body[MANIFEST_MAGIC.len()..]);
    let mut listed = Vec::new();
    while !r.is_empty() {
        let entry = r.u64().and_then(|id| Ok((id, r.u32()?)));
        let (id, level) = entry.map_err(|_| bad("MANIFEST holds a partial entry"))?;
        // Each level is ten times the last, so no tree is 64 deep; a level
        // read from disk must not size the level vector unchecked.
        if level > 63 {
            return Err(bad(&format!("SST {id} listed at implausible level {level}")));
        }
        listed.push((id, level));
    }
    Ok(listed)
}

/// Open exactly the files `dir`'s `MANIFEST` lists, at their levels, and
/// return the levels and the next free file id. Unlisted `NNNNNNNN.sst` /
/// `.sst.tmp` files go once every listed file has opened, so a refused open
/// touches nothing. A directory with no `MANIFEST` gets an empty one unless
/// it holds SSTs (an earlier build's): that is [`Error::Corruption`].
pub(crate) fn recover(dir: &Path, stats: &Stats) -> Result<(Vec<Vec<Arc<SstReader>>>, u64)> {
    let mut ours = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        let stem = name.strip_suffix(".sst.tmp").or_else(|| name.strip_suffix(".sst"));
        if let Some(id) = stem.and_then(|s| s.parse::<u64>().ok()) {
            ours.push((id, path));
        }
    }
    let path = dir.join("MANIFEST");
    let listed = match std::fs::read(&path) {
        Ok(bytes) => decode(&bytes, &path)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            if let Some((_, sst)) = ours.iter().find(|(_, p)| p.extension() == Some("sst".as_ref()))
            {
                let (dir, sst) = (dir.display(), sst.display());
                return Err(Error::corruption(format!(
                    "{dir} has no MANIFEST (written by an earlier build?): level of {sst} unknown"
                )));
            }
            store(dir, &Version { levels: vec![Vec::new()] })?;
            Vec::new()
        }
        Err(e) => return Err(e.into()),
    };
    let mut levels: Vec<Vec<Arc<SstReader>>> = vec![Vec::new()];
    for &(id, level) in &listed {
        let (sst, load_time) = SstReader::open_timed(sst::sst_path(dir, id), id)?;
        if sst.filter().is_some() {
            stats.filters_loaded.inc();
            stats.filter_load_ns.add(load_time.as_nanos() as u64);
        } else if sst.filter_block_len() > 0 {
            stats.filters_degraded.inc();
        }
        let level = level as usize;
        levels.resize_with(levels.len().max(level + 1), Vec::new);
        levels[level].push(Arc::new(sst));
    }
    stats.ssts_recovered.add(listed.len() as u64);
    for (id, path) in &ours {
        if !listed.iter().any(|&(live, _)| live == *id) {
            std::fs::remove_file(path)?;
        }
    }
    Ok((levels, ours.iter().map(|&(id, _)| id + 1).max().unwrap_or(1)))
}
