//! Low-level wire primitives for the versioned filter codec.
//!
//! Every persistent structure in the workspace serializes through the
//! helpers here: little-endian fixed-width integers, length-prefixed byte
//! runs, and a CRC-32 integrity check. The one exception is the store's
//! data block decoder (`proteus_lsm::block`), which keeps its own reads on
//! purpose: moving its per-entry loop onto [`ByteReader`] measured 10–28 %
//! slower per block, and it runs on every false-positive Seek.
//!
//! Decoding is *total*: corrupt or truncated input yields a typed
//! [`CodecError`], never a panic, and every length field is validated
//! against the remaining buffer before any allocation so fuzzed inputs
//! cannot trigger huge reservations.

use std::fmt;

/// Why a decode failed. All decode paths in the workspace funnel into this
/// type; none of them panic on malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the structure did.
    Truncated {
        /// Bytes the decoder needed at the failure point.
        needed: usize,
        /// Bytes that were actually left.
        have: usize,
    },
    /// The leading magic bytes did not match.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The CRC-32 over the envelope did not match its trailer.
    ChecksumMismatch,
    /// A tag byte had no defined meaning.
    UnknownTag {
        /// What kind of field carried the tag.
        what: &'static str,
        /// The unrecognized tag value.
        tag: u8,
    },
    /// A structural invariant failed (lengths disagree, bits out of range).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, have } => {
                write!(f, "truncated input: needed {needed} bytes, have {have}")
            }
            CodecError::BadMagic => write!(f, "bad magic bytes"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::ChecksumMismatch => write!(f, "checksum mismatch"),
            CodecError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Little-endian append helpers; implemented for `Vec<u8>` so encoders can
/// write straight into an output buffer.
pub trait WireWrite {
    /// Append `v` as one byte.
    fn put_u8(&mut self, v: u8);
    /// Append `v` little-endian (2 bytes).
    fn put_u16(&mut self, v: u16);
    /// Append `v` little-endian (4 bytes).
    fn put_u32(&mut self, v: u32);
    /// Append `v` little-endian (8 bytes).
    fn put_u64(&mut self, v: u64);
    /// Append `v` as its IEEE-754 bits, little-endian (8 bytes).
    fn put_f64(&mut self, v: f64);
    /// Length-prefixed (u64) byte run.
    fn put_bytes(&mut self, v: &[u8]);
}

impl WireWrite for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f64(&mut self, v: f64) {
        self.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.extend_from_slice(v);
    }
}

/// A bounds-checked cursor over an input buffer.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { needed: n, have: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Consume a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        // lint: allow(no-panic): take(2) just guaranteed the width
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        // lint: allow(no-panic): take(4) just guaranteed the width
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        // lint: allow(no-panic): take(8) just guaranteed the width
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Consume a little-endian IEEE-754 `f64`.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` that must fit addressable memory *and* the remaining buffer
    /// when it counts `unit`-sized items still to be read. This is the
    /// guard that keeps fuzzed length fields from provoking huge
    /// allocations.
    pub fn len_for(&mut self, unit: usize) -> Result<usize, CodecError> {
        let raw = self.u64()?;
        let n = usize::try_from(raw).map_err(|_| CodecError::Invalid("length overflow"))?;
        let bytes = n.checked_mul(unit.max(1)).ok_or(CodecError::Invalid("length overflow"))?;
        if unit > 0 && bytes > self.remaining() {
            return Err(CodecError::Truncated { needed: bytes, have: self.remaining() });
        }
        Ok(n)
    }

    /// Length-prefixed (u64) byte run, the inverse of
    /// [`WireWrite::put_bytes`].
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.len_for(1)?;
        self.take(n)
    }

    /// Assert the buffer is fully consumed (trailing garbage is corruption).
    pub fn finish(self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Invalid("trailing bytes"))
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum
/// sealing every WAL record and WAL segment header, the `MANIFEST`, every
/// SST index block and every filter envelope.
///
/// Slice-by-8: each step folds eight bytes through eight tables, table
/// `k` advancing a byte's CRC by `k` further zero bytes; the tail takes
/// the bytewise step. The result is the bytewise table loop's, bit for
/// bit.
pub fn crc32(data: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = crc32_tables();
    let byte = |crc: u32, shift: u32| ((crc >> shift) & 0xFF) as usize;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = T[7][byte(lo, 0)]
            ^ T[6][byte(lo, 8)]
            ^ T[5][byte(lo, 16)]
            ^ T[4][byte(lo, 24)]
            ^ T[3][byte(hi, 0)]
            ^ T[2][byte(hi, 8)]
            ^ T[1][byte(hi, 16)]
            ^ T[0][byte(hi, 24)];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ T[0][byte(crc ^ u32::from(b), 0)];
    }
    !crc
}

/// `T[0]` is the bytewise CRC table; `T[k][i]` is `T[k - 1][i]` advanced
/// by one zero byte.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0u32;
    while i < 256 {
        let mut c = i;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i as usize] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut buf = Vec::new();
        buf.put_u8(0xAB);
        buf.put_u16(0x1234);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_u64(u64::MAX - 7);
        buf.put_f64(0.125);
        buf.put_bytes(b"hello");
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.f64().unwrap(), 0.125);
        assert_eq!(r.bytes().unwrap(), b"hello");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_at_every_point() {
        let mut buf = Vec::new();
        buf.put_u32(1);
        buf.put_bytes(b"xyz");
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            let a = r.u32().and_then(|_| r.bytes().map(|b| b.to_vec()));
            assert!(a.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn oversized_length_field_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.put_u64(u64::MAX); // claims ~18 EB of payload
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.bytes(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let buf = vec![1, 2, 3];
        let mut r = ByteReader::new(&buf);
        let _ = r.u8().unwrap();
        assert_eq!(r.finish(), Err(CodecError::Invalid("trailing bytes")));
    }

    /// The byte-at-a-time table loop the slice-by-8 [`crc32`] replaced,
    /// kept as the reference it must equal bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let table = crc32_tables()[0];
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check values; the 43-byte one takes five 8-byte steps
        // and a 3-byte tail.
        for (data, crc) in [
            (&b""[..], 0),
            (b"a", 0xE8B7_BE43),
            (b"abc", 0x3524_41C2),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
        ] {
            assert_eq!(crc32(data), crc, "{:?}", String::from_utf8_lossy(data));
            assert_eq!(crc32_bytewise(data), crc);
        }
    }

    proptest::proptest! {
        /// Bit-identical to the bytewise loop for every length up to 8 KiB
        /// and every start offset modulo the 8-byte step, so no alignment
        /// or tail length is special.
        #[test]
        fn crc32_equals_the_bytewise_loop(
            len in 0usize..=8192, offset in 0usize..8, seed in 1u64..u64::MAX
        ) {
            let mut x = seed;
            let buf: Vec<u8> = (0..offset + len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let data = &buf[offset..];
            proptest::prop_assert_eq!(crc32(data), crc32_bytewise(data), "len {} offset {}", len, offset);
        }
    }

    #[test]
    fn crc32_detects_single_byte_flips() {
        let data: Vec<u8> = (0..64u8).collect();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut m = data.clone();
                m[i] ^= 1 << bit;
                assert_ne!(crc32(&m), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
