//! The versioned filter envelope: the self-describing, checksummed wire
//! format wrapping every serialized range filter.
//!
//! ```text
//! offset    size  field
//! 0         4     magic  b"PRFC"
//! 4         2     format version (little-endian; currently 2)
//! 6         1     filter-kind tag (see [`FilterKind`])
//! 7         1     reserved (0)
//! 8         8     payload length (little-endian u64)
//! 16        n     kind-specific payload
//! 16+n      4     skipped-section length f (little-endian u32; written 0)
//! 20+n      f     skipped bytes
//! (end−4)   4     CRC-32 over every preceding byte
//! ```
//!
//! The skipped section once carried a training fingerprint (a histogram of
//! the sample queries the filter was trained on). Nothing reads it any
//! more: this build always writes it empty, and on read steps over its
//! bytes (the CRC still covers them), so a block written with a
//! fingerprint still opens.
//!
//! Version 2 is the only envelope this build decodes. Version 1 (the same
//! envelope without the skipped section) could only ride in the legacy SST
//! generations the store no longer opens; such bytes fail with
//! [`CodecError::UnsupportedVersion`] like any other unknown version.
//!
//! [`seal`] builds the envelope; [`unseal`] verifies magic, version, length
//! and checksum and hands back an [`Unsealed`] view. Decoding is total:
//! corrupt, truncated or version-mismatched bytes produce a typed
//! [`CodecError`], never a panic.
//! Dispatch over the kind tag lives one crate up, in
//! `proteus_filters::codec::FilterCodec`, which can see every filter type
//! in the workspace. A kind tag it does not know — one from a newer build,
//! or the retired tag 0 — is [`CodecError::UnknownTag`] there, like any
//! other undecodable block; the SST reader opens such a file without a
//! filter.

pub use proteus_succinct::codec::{crc32, ByteReader, CodecError, WireWrite};

/// Leading magic of every serialized filter ("Proteus Range Filter Codec").
pub const FILTER_MAGIC: [u8; 4] = *b"PRFC";

/// The envelope format version. Bump on any incompatible payload or
/// envelope change; decoders reject every version but this one.
pub const FORMAT_VERSION: u16 = 2;

/// Envelope bytes before the payload.
pub const HEADER_LEN: usize = 16;

/// Envelope bytes around an `n`-byte payload, as [`seal`] writes it.
pub const fn envelope_len(payload_len: usize) -> usize {
    HEADER_LEN + payload_len + 4 + 4
}

/// Stable wire tags for every serializable filter kind in the workspace.
///
/// Tags are part of the on-disk format: never renumber, only append. Tag 0
/// is reserved: it once marked a pass-through "no filter" with an empty
/// payload, is never written, and decodes as an unknown tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FilterKind {
    /// Proteus (trie + prefix Bloom + design).
    Proteus = 1,
    /// 1PBF's own tag from before it was a trie-less Proteus: still decoded
    /// (as a [`crate::Proteus`]), never written.
    OnePbf = 2,
    /// Two stacked prefix Bloom filters.
    TwoPbf = 3,
    /// SuRF in any suffix mode (Base / Hash / Real).
    Surf = 4,
    /// Rosetta (per-level prefix Bloom filters).
    Rosetta = 5,
}

impl FilterKind {
    /// The stable wire tag this kind serializes as.
    pub const fn tag(self) -> u8 {
        // lint: allow(truncating-cast): `#[repr(u8)]` discriminants fit by construction
        self as u8
    }

    /// Map a raw wire tag back to its kind; `None` for tags this build
    /// does not know (a filter written by a newer version, or the reserved
    /// tag 0).
    pub fn from_tag(tag: u8) -> Option<FilterKind> {
        match tag {
            1 => Some(FilterKind::Proteus),
            2 => Some(FilterKind::OnePbf),
            3 => Some(FilterKind::TwoPbf),
            4 => Some(FilterKind::Surf),
            5 => Some(FilterKind::Rosetta),
            _ => None,
        }
    }
}

/// A verified envelope: the raw kind tag (not [`FilterKind`], so an
/// unknown tag still unseals and the caller can name it), and the
/// kind-specific payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unsealed<'a> {
    /// Raw filter-kind tag.
    pub tag: u8,
    /// Kind-specific payload bytes.
    pub payload: &'a [u8],
}

/// Wrap `payload` in the current envelope for `kind`.
pub fn seal(kind: FilterKind, payload: &[u8]) -> Vec<u8> {
    seal_raw(kind.tag(), payload)
}

/// [`seal`] with an arbitrary kind tag — used by tests that fabricate
/// envelopes from retired or "future" filter kinds.
pub fn seal_raw(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(envelope_len(payload.len()));
    out.extend_from_slice(&FILTER_MAGIC);
    out.put_u16(FORMAT_VERSION);
    out.put_u8(tag);
    out.put_u8(0);
    out.put_u64(payload.len() as u64);
    out.extend_from_slice(payload);
    out.put_u32(0); // the skipped section, empty
    let crc = crc32(&out);
    out.put_u32(crc);
    out
}

/// Verify an envelope and return its parts.
pub fn unseal(bytes: &[u8]) -> Result<Unsealed<'_>, CodecError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(4)?;
    if magic != FILTER_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u16()?;
    if version != FORMAT_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let tag = r.u8()?;
    let _reserved = r.u8()?;
    let payload_len = r.len_for(1)?;
    let payload = r.take(payload_len)?;
    let skipped = r.u32()? as usize;
    r.take(skipped)?;
    let stored_crc = r.u32()?;
    r.finish()?;
    if crc32(&bytes[..bytes.len() - 4]) != stored_crc {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(Unsealed { tag, payload })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden fixture: the envelope header bytes are part of the on-disk
    /// format. If this test needs updating, the format changed — bump
    /// [`FORMAT_VERSION`] and extend the decoder instead of editing the
    /// expectation.
    #[test]
    fn envelope_header_golden_bytes() {
        let sealed = seal(FilterKind::Proteus, &[]);
        assert_eq!(&sealed[..4], b"PRFC");
        assert_eq!(sealed[..4], FILTER_MAGIC);
        assert_eq!(u16::from_le_bytes([sealed[4], sealed[5]]), FORMAT_VERSION);
        assert_eq!(FORMAT_VERSION, 2);
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let payload = b"some filter payload";
        let sealed = seal(FilterKind::Proteus, payload);
        assert_eq!(sealed.len(), envelope_len(payload.len()));
        let u = unseal(&sealed).unwrap();
        assert_eq!(u.tag, FilterKind::Proteus as u8);
        assert_eq!(u.payload, payload);
    }

    #[test]
    fn empty_payload_is_valid() {
        let sealed = seal_raw(0, &[]);
        let u = unseal(&sealed).unwrap();
        assert_eq!(u.tag, 0);
        assert!(u.payload.is_empty());
    }

    #[test]
    fn every_truncation_fails() {
        let sealed = seal(FilterKind::Rosetta, &[1, 2, 3, 4, 5]);
        for cut in 0..sealed.len() {
            assert!(unseal(&sealed[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn every_single_byte_corruption_fails() {
        let sealed = seal(FilterKind::Surf, b"payload-bytes");
        for i in 0..sealed.len() {
            for bit in [1u8, 0x80] {
                let mut bad = sealed.clone();
                bad[i] ^= bit;
                assert!(unseal(&bad).is_err(), "flip at byte {i}");
            }
        }
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let mut sealed = seal(FilterKind::Proteus, &[]);
        sealed[0] = b'X';
        assert_eq!(unseal(&sealed).unwrap_err(), CodecError::BadMagic);
        // Every other version — the retired v1 included — is rejected
        // before the checksum so the error names the real problem.
        for bad_version in [0u8, 1, FORMAT_VERSION as u8 + 1] {
            let mut sealed = seal(FilterKind::Proteus, &[]);
            sealed[4] = bad_version;
            assert_eq!(
                unseal(&sealed).unwrap_err(),
                CodecError::UnsupportedVersion(bad_version as u16)
            );
        }
    }

    #[test]
    fn unknown_kind_tag_survives_unseal() {
        // A future filter kind, and the reserved tag 0: the envelope is
        // valid, the tag unknown.
        for tag in [250, 0] {
            let raw = seal_raw(tag, &[]);
            let u = unseal(&raw).unwrap();
            assert_eq!(u.tag, tag);
            assert!(FilterKind::from_tag(u.tag).is_none());
        }
    }

    #[test]
    fn kind_tags_are_stable() {
        // Wire contract: these numbers are frozen, and 0 stays reserved.
        assert_eq!(FilterKind::Proteus as u8, 1);
        assert_eq!(FilterKind::OnePbf as u8, 2);
        assert_eq!(FilterKind::TwoPbf as u8, 3);
        assert_eq!(FilterKind::Surf as u8, 4);
        assert_eq!(FilterKind::Rosetta as u8, 5);
        for t in 1..=5u8 {
            assert_eq!(FilterKind::from_tag(t).map(|k| k as u8), Some(t));
        }
        assert_eq!(FilterKind::from_tag(0), None);
    }
}
