//! Per-leaf value storage for the FST.
//!
//! The Proteus trie stores, for every key branch that became unique before
//! the uniform trie depth, the remaining key bytes ("explicitly stored key
//! bits", §4.1). SuRF stores fixed-width hash or real suffix bits. Both are
//! addressed by the *value slot* the FST assigns to each terminal (leaf edge
//! or prefix-key) in level order.

use crate::bitvec::BitVec;
use crate::codec::{ByteReader, CodecError, WireWrite};

/// A bit-packed array of fixed-width unsigned integers.
#[derive(Debug, Clone, Default)]
pub struct PackedInts {
    bits: BitVec,
    width: u32,
    len: usize,
}

impl PackedInts {
    /// Pack `values`; `width` must be ≤ 64 and large enough for every value.
    pub fn new(values: &[u64], width: u32) -> Self {
        assert!(width <= 64);
        let mut bits = BitVec::with_capacity(values.len() * width as usize);
        for &v in values {
            debug_assert!(width == 64 || v < (1u64 << width), "value {v} exceeds width {width}");
            for i in 0..width {
                bits.push((v >> i) & 1 == 1);
            }
        }
        PackedInts { bits, width, len: values.len() }
    }

    /// Smallest width able to hold `max_value` (0 for a value of 0).
    pub fn width_for(max_value: u64) -> u32 {
        if max_value == 0 {
            0
        } else {
            64 - max_value.leading_zeros()
        }
    }

    /// The `i`-th packed value.
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        let mut v = 0u64;
        let base = i * self.width as usize;
        for b in 0..self.width as usize {
            if self.bits.get(base + b) {
                v |= 1u64 << b;
            }
        }
        v
    }

    /// Number of packed values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no value is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Encoded size, in bits.
    pub fn size_bits(&self) -> u64 {
        self.bits.size_bits()
    }

    /// Serialize as `[u8 width][u64 len][bit vector]`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_u8(self.width as u8);
        out.put_u64(self.len as u64);
        self.bits.encode_into(out);
    }

    /// Decode a packing previously written by `encode_into`, validating
    /// width and length against the bit vector.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<PackedInts, CodecError> {
        let width = r.u8()? as u32;
        if width > 64 {
            return Err(CodecError::Invalid("packed width > 64"));
        }
        let len = usize::try_from(r.u64()?).map_err(|_| CodecError::Invalid("packed length"))?;
        let bits = BitVec::decode_from(r)?;
        let want =
            len.checked_mul(width as usize).ok_or(CodecError::Invalid("packed length overflow"))?;
        if bits.len() != want {
            return Err(CodecError::Invalid("packed bits/len mismatch"));
        }
        Ok(PackedInts { bits, width, len })
    }
}

/// Storage for the values attached to FST terminals.
#[derive(Debug, Clone)]
pub enum ValueStore {
    /// No per-terminal payload (SuRF-Base, or a Proteus trie whose every
    /// branch reaches the uniform depth).
    Empty,
    /// Variable-length byte suffixes (Proteus explicit key bits). Indexed by
    /// bit-packed offsets into a shared buffer.
    Bytes {
        /// `len + 1` monotone offsets into `data`, bit-packed.
        offsets: PackedInts,
        /// Concatenated suffix bytes.
        data: Vec<u8>,
    },
    /// Fixed-width bit suffixes (SuRF-Hash / SuRF-Real).
    FixedBits {
        /// One fixed-width value per slot.
        values: PackedInts,
    },
}

impl ValueStore {
    /// Build byte-suffix storage from per-slot suffixes.
    pub fn from_byte_suffixes<S: AsRef<[u8]>>(suffixes: &[S]) -> Self {
        let total: usize = suffixes.iter().map(|s| s.as_ref().len()).sum();
        if total == 0 {
            return ValueStore::Empty;
        }
        let mut data = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(suffixes.len() + 1);
        for s in suffixes {
            offsets.push(data.len() as u64);
            data.extend_from_slice(s.as_ref());
        }
        offsets.push(data.len() as u64);
        let width = PackedInts::width_for(data.len() as u64).max(1);
        ValueStore::Bytes { offsets: PackedInts::new(&offsets, width), data }
    }

    /// Build fixed-width storage from per-slot values.
    pub fn from_fixed_bits(values: &[u64], width: u32) -> Self {
        if width == 0 || values.is_empty() {
            return ValueStore::Empty;
        }
        ValueStore::FixedBits { values: PackedInts::new(values, width) }
    }

    /// The byte suffix for `slot` (empty for non-byte stores).
    pub fn bytes(&self, slot: usize) -> &[u8] {
        match self {
            ValueStore::Bytes { offsets, data } => {
                let lo = offsets.get(slot) as usize;
                let hi = offsets.get(slot + 1) as usize;
                &data[lo..hi]
            }
            _ => &[],
        }
    }

    /// The fixed-width value for `slot` (0 for non-fixed stores).
    pub fn fixed(&self, slot: usize) -> u64 {
        match self {
            ValueStore::FixedBits { values } => values.get(slot),
            _ => 0,
        }
    }

    /// Encoded size of the store, in bits.
    pub fn size_bits(&self) -> u64 {
        match self {
            ValueStore::Empty => 0,
            ValueStore::Bytes { offsets, data } => offsets.size_bits() + (data.len() as u64) * 8,
            ValueStore::FixedBits { values } => values.size_bits(),
        }
    }

    /// Serialize as a tag byte plus the variant payload.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            ValueStore::Empty => out.put_u8(0),
            ValueStore::Bytes { offsets, data } => {
                out.put_u8(1);
                offsets.encode_into(out);
                out.put_bytes(data);
            }
            ValueStore::FixedBits { values } => {
                out.put_u8(2);
                values.encode_into(out);
            }
        }
    }

    /// Decode a store previously written by `encode_into`; offsets are
    /// validated so `bytes(slot)` can never slice out of range.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<ValueStore, CodecError> {
        match r.u8()? {
            0 => Ok(ValueStore::Empty),
            1 => {
                let offsets = PackedInts::decode_from(r)?;
                let data = r.bytes()?.to_vec();
                // Every offset must index into `data` and the sequence must
                // be monotone so `bytes(slot)` can never slice out of range.
                if offsets.is_empty() {
                    return Err(CodecError::Invalid("byte store without offsets"));
                }
                let mut prev = 0u64;
                for i in 0..offsets.len() {
                    let o = offsets.get(i);
                    if o < prev || o > data.len() as u64 {
                        return Err(CodecError::Invalid("byte store offsets out of range"));
                    }
                    prev = o;
                }
                Ok(ValueStore::Bytes { offsets, data })
            }
            2 => Ok(ValueStore::FixedBits { values: PackedInts::decode_from(r)? }),
            tag => Err(CodecError::UnknownTag { what: "value store", tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_ints_roundtrip() {
        let vals: Vec<u64> = (0..200).map(|i| (i * 37) % 1000).collect();
        let p = PackedInts::new(&vals, 10);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(p.get(i), v);
        }
        assert_eq!(p.len(), 200);
    }

    #[test]
    fn packed_width_for() {
        assert_eq!(PackedInts::width_for(0), 0);
        assert_eq!(PackedInts::width_for(1), 1);
        assert_eq!(PackedInts::width_for(255), 8);
        assert_eq!(PackedInts::width_for(256), 9);
        assert_eq!(PackedInts::width_for(u64::MAX), 64);
    }

    #[test]
    fn packed_full_width() {
        let vals = [u64::MAX, 0, 12345];
        let p = PackedInts::new(&vals, 64);
        assert_eq!(p.get(0), u64::MAX);
        assert_eq!(p.get(1), 0);
        assert_eq!(p.get(2), 12345);
    }

    #[test]
    fn byte_suffix_store() {
        let sufs: Vec<&[u8]> = vec![b"abc", b"", b"x", b"longer-suffix"];
        let vs = ValueStore::from_byte_suffixes(&sufs);
        for (i, s) in sufs.iter().enumerate() {
            assert_eq!(vs.bytes(i), *s);
        }
    }

    #[test]
    fn all_empty_suffixes_collapse_to_empty_store() {
        let sufs: Vec<&[u8]> = vec![b"", b"", b""];
        let vs = ValueStore::from_byte_suffixes(&sufs);
        assert!(matches!(vs, ValueStore::Empty));
        assert_eq!(vs.size_bits(), 0);
        assert_eq!(vs.bytes(1), b"");
    }

    #[test]
    fn fixed_bits_store() {
        let vals = [5u64, 1023, 0, 77];
        let vs = ValueStore::from_fixed_bits(&vals, 10);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(vs.fixed(i), v);
        }
    }

    #[test]
    fn value_store_roundtrips() {
        use crate::codec::ByteReader;
        let stores = [
            ValueStore::Empty,
            ValueStore::from_byte_suffixes(&[&b"abc"[..], b"", b"xy"]),
            ValueStore::from_fixed_bits(&[5, 1023, 0, 77], 10),
        ];
        for vs in &stores {
            let mut buf = Vec::new();
            vs.encode_into(&mut buf);
            let mut r = ByteReader::new(&buf);
            let back = ValueStore::decode_from(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back.size_bits(), vs.size_bits());
            for slot in 0..3 {
                assert_eq!(back.bytes(slot), vs.bytes(slot));
                assert_eq!(back.fixed(slot), vs.fixed(slot));
            }
        }
    }

    #[test]
    fn byte_store_with_bad_offsets_is_rejected() {
        let vs = ValueStore::from_byte_suffixes(&[&b"abcdef"[..], b"gh"]);
        let mut buf = Vec::new();
        vs.encode_into(&mut buf);
        // Shrink the data run: offsets now point past the end.
        let ValueStore::Bytes { data, .. } = &vs else { unreachable!() };
        let cut = buf.len() - data.len();
        let mut bad = buf[..cut].to_vec();
        bad[cut - 8..cut].copy_from_slice(&0u64.to_le_bytes());
        let mut r = crate::codec::ByteReader::new(&bad);
        assert!(ValueStore::decode_from(&mut r).is_err());
    }

    #[test]
    fn size_accounting() {
        let sufs: Vec<&[u8]> = vec![b"ab", b"cd"];
        let vs = ValueStore::from_byte_suffixes(&sufs);
        assert!(vs.size_bits() >= 32); // 4 data bytes plus offsets
    }
}
