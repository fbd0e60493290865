//! Hash functions used by the Proteus filters.
//!
//! The paper uses MurmurHash3 for integer workloads and CLHASH (a carry-less
//! multiplication hash) for string workloads (§4.3 footnote 2 and §7.1).
//! Both are implemented here from scratch; no external hashing crates are
//! used.

pub mod clhash;
pub mod murmur3;

use proteus_succinct::codec::{ByteReader, CodecError, WireWrite};

/// A 128-bit key hash split into the two 64-bit halves used for double
/// hashing (Kirsch–Mitzenmacher): probe `i` uses `h1 + i * h2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyHash {
    pub h1: u64,
    pub h2: u64,
}

impl KeyHash {
    /// Construct from a raw 128-bit value (low half becomes `h1`).
    #[inline]
    pub fn from_u128(h: u128) -> Self {
        KeyHash { h1: h as u64, h2: (h >> 64) as u64 }
    }

    /// The `i`-th probe index within a table of `m` slots.
    #[inline]
    pub fn probe(self, i: u32, m: FastRem) -> u64 {
        // Force h2 odd so successive probes cycle through many slots even
        // when m is a power of two.
        let h2 = self.h2 | 1;
        m.reduce(self.h1.wrapping_add((i as u64).wrapping_mul(h2)))
    }
}

/// A table size `m` together with the reciprocal that turns `x % m` into
/// two multiplies and a conditional subtract — a probe position costs a
/// handful of cycles instead of a 64-bit division. The reciprocal is derived
/// from `m` wherever a filter is built or decoded and is never serialised;
/// [`FastRem::reduce`] equals `%` for every `x` and every `m >= 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastRem {
    m: u64,
    /// `floor((2^64 - 1) / m)`; 0 for the empty table.
    recip: u64,
}

impl FastRem {
    /// `m == 0` (a zero-size table) is representable but has no remainders.
    pub fn new(m: u64) -> Self {
        FastRem { m, recip: u64::MAX.checked_div(m).unwrap_or(0) }
    }

    /// The table size `m`.
    #[inline]
    pub fn get(self) -> u64 {
        self.m
    }

    /// `x % m`. `recip >= 2^64/m - 1`, so the quotient estimate
    /// `floor(x * recip / 2^64)` is the true quotient or one less, and the
    /// candidate remainder lies in `[0, 2m)`: one subtract corrects it.
    #[inline]
    pub fn reduce(self, x: u64) -> u64 {
        debug_assert!(self.m > 0);
        let q = ((x as u128 * self.recip as u128) >> 64) as u64;
        let r = x.wrapping_sub(q.wrapping_mul(self.m));
        if r >= self.m {
            r - self.m
        } else {
            r
        }
    }
}

/// Which hash family a prefix filter uses.
///
/// The paper: "We use the MurmurHash3 and CLHASH hash functions for integer
/// and string workloads respectively".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HashFamily {
    /// MurmurHash3 x64_128 (integer workloads).
    #[default]
    Murmur3,
    /// CLHash-style carry-less multiplication hash (string workloads).
    ClHash,
}

impl HashFamily {
    /// Stable wire tag for the persistent filter format.
    pub fn wire_tag(self) -> u8 {
        match self {
            HashFamily::Murmur3 => 0,
            HashFamily::ClHash => 1,
        }
    }

    pub fn from_wire_tag(tag: u8) -> Result<HashFamily, CodecError> {
        match tag {
            0 => Ok(HashFamily::Murmur3),
            1 => Ok(HashFamily::ClHash),
            tag => Err(CodecError::UnknownTag { what: "hash family", tag }),
        }
    }
}

/// Hashes `(prefix bytes, bit length)` pairs into [`KeyHash`]es.
///
/// Two different prefixes of the same key must hash differently even when
/// the trailing bits of the final byte agree, so the hasher masks the unused
/// low bits of the last byte and mixes the bit length into the seed.
#[derive(Debug, Clone)]
pub struct PrefixHasher {
    family: HashFamily,
    clhash: clhash::ClHasher,
    seed: u32,
}

impl PrefixHasher {
    pub fn new(family: HashFamily, seed: u32) -> Self {
        PrefixHasher { family, clhash: clhash::ClHasher::new(seed as u64), seed }
    }

    /// Hash the first `bits` bits of `key_bytes` (big-endian bit order).
    ///
    /// `key_bytes` must contain at least `ceil(bits / 8)` bytes. Bytes past
    /// the prefix are ignored; the final partial byte is masked.
    #[inline]
    pub fn hash_prefix(&self, key_bytes: &[u8], bits: u32) -> KeyHash {
        let nbytes = bits.div_ceil(8) as usize;
        debug_assert!(key_bytes.len() >= nbytes, "key too short for prefix");
        let seed = self.seed ^ bits.rotate_left(16);
        if self.family == HashFamily::Murmur3 && nbytes < 16 {
            // Every integer-key prefix: shorter than one MurmurHash3 block,
            // so the hash is the reference's tail over two masked words.
            let (k1, k2) = prefix_words(key_bytes, nbytes, bits);
            return KeyHash::from_u128(murmur3::murmur3_x64_128_short(k1, k2, nbytes, seed));
        }
        self.hash_long_prefix(key_bytes, nbytes, bits, seed)
    }

    /// [`PrefixHasher::hash_prefix`] past the short path: string-key
    /// prefixes of a block or more, and every CLHash prefix.
    fn hash_long_prefix(&self, key_bytes: &[u8], nbytes: usize, bits: u32, seed: u32) -> KeyHash {
        // Stack buffer: prefixes are at most 256 bytes in practice (2048-bit
        // keys); fall back to hashing in two pieces for longer ones.
        let mut buf = [0u8; 256];
        if nbytes <= buf.len() {
            buf[..nbytes].copy_from_slice(&key_bytes[..nbytes]);
            mask_last_byte(&mut buf[..nbytes], bits);
            self.dispatch(&buf[..nbytes], seed)
        } else {
            let mut tail = key_bytes[nbytes - 1];
            let rem = bits % 8;
            if rem != 0 {
                tail &= 0xFFu8 << (8 - rem);
            }
            let head = self.dispatch(&key_bytes[..nbytes - 1], seed);
            let h = self.dispatch(&[tail], seed ^ head.h1 as u32);
            KeyHash { h1: head.h1 ^ h.h1.rotate_left(31), h2: head.h2 ^ h.h2.rotate_left(17) }
        }
    }

    /// Serialize family + seed; the CLHash key schedule is regenerated
    /// deterministically from the seed on decode.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_u8(self.family.wire_tag());
        out.put_u32(self.seed);
    }

    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<PrefixHasher, CodecError> {
        let family = HashFamily::from_wire_tag(r.u8()?)?;
        let seed = r.u32()?;
        Ok(PrefixHasher::new(family, seed))
    }

    /// Hash a complete byte string (all `8 * len` bits).
    pub fn hash_bytes(&self, bytes: &[u8]) -> KeyHash {
        self.dispatch(bytes, self.seed ^ ((bytes.len() as u32 * 8).rotate_left(16)))
    }

    fn dispatch(&self, data: &[u8], seed: u32) -> KeyHash {
        match self.family {
            HashFamily::Murmur3 => KeyHash::from_u128(murmur3::murmur3_x64_128(data, seed)),
            HashFamily::ClHash => {
                let h = self.clhash.hash(data, seed as u64);
                // Derive a second independent word for double hashing.
                let h2 = murmur3::fmix64(h ^ 0x9E37_79B9_7F4A_7C15);
                KeyHash { h1: h, h2 }
            }
        }
    }
}

/// Zero the bits of the final byte that lie past `bits`.
#[inline]
fn mask_last_byte(buf: &mut [u8], bits: u32) {
    let rem = bits % 8;
    if rem != 0 {
        if let Some(last) = buf.last_mut() {
            *last &= 0xFFu8 << (8 - rem);
        }
    }
}

/// The first `nbytes < 16` bytes of `key` as MurmurHash3's two little-endian
/// tail words, with every bit past the `bits`-bit prefix zero. Keys at least
/// one word long (every canonical integer key) are read with fixed-size
/// loads.
#[inline]
fn prefix_words(key: &[u8], nbytes: usize, bits: u32) -> (u64, u64) {
    let halves = |v: u128| (v as u64, (v >> 64) as u64);
    let (k1, k2) = if let Some(both) = key.first_chunk::<16>() {
        halves(u128::from_le_bytes(*both))
    } else if let (Some(first), true) = (key.first_chunk::<8>(), nbytes <= 8) {
        (u64::from_le_bytes(*first), 0)
    } else {
        let mut buf = [0u8; 16];
        buf[..nbytes].copy_from_slice(&key[..nbytes]);
        halves(u128::from_le_bytes(buf))
    };
    // Little-endian: byte `i` of the key is bits `8i..8i+8` of its word.
    let low_bytes = |x: u64, n: usize| if n >= 8 { x } else { x & ((1u64 << (8 * n)) - 1) };
    let (mut k1, mut k2) = (low_bytes(k1, nbytes), low_bytes(k2, nbytes.saturating_sub(8)));
    let rem = bits % 8;
    if rem != 0 {
        // Clear the low `8 - rem` bits of the prefix's final byte.
        let last = nbytes - 1;
        let clear = !(((1u64 << (8 - rem)) - 1) << (8 * (last % 8)));
        if last < 8 {
            k1 &= clear;
        } else {
            k2 &= clear;
        }
    }
    (k1, k2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_sequence_is_well_distributed() {
        let h = KeyHash { h1: 12345, h2: 67890 };
        let m = 1024;
        let probes: Vec<u64> = (0..16).map(|i| h.probe(i, FastRem::new(m))).collect();
        let mut uniq = probes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() >= 14, "double hashing should rarely collide: {probes:?}");
        assert!(probes.iter().all(|&p| p < m));
    }

    #[test]
    fn fast_rem_is_the_remainder_at_the_edges() {
        let xs = [0, 1, 2, 63, 64, 1 << 32, (1 << 63) - 1, 1 << 63, u64::MAX - 1, u64::MAX];
        let ms = [1, 2, 3, 7, 64, 1000, 1 << 32, (1 << 32) + 1, 1 << 63, (1 << 63) + 1, u64::MAX];
        for m in ms {
            let fast = FastRem::new(m);
            assert_eq!(fast.get(), m);
            for x in xs.into_iter().chain([m - 1, m, m.wrapping_add(1), m.wrapping_mul(3)]) {
                assert_eq!(fast.reduce(x), x % m, "{x} % {m}");
            }
        }
    }

    #[test]
    fn short_prefixes_hash_like_the_reference_tail() {
        // Every prefix under one MurmurHash3 block, byte-aligned or not,
        // from keys that are shorter than, exactly, and longer than a word:
        // the fixed-size loads must agree with masking a copy and hashing it.
        let key: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0xA5).collect();
        for seed in [0u32, 7, 0xDEAD_BEEF] {
            let hasher = PrefixHasher::new(HashFamily::Murmur3, seed);
            for bits in 0..128u32 {
                let nbytes = bits.div_ceil(8) as usize;
                let mut masked = key[..nbytes].to_vec();
                if bits % 8 != 0 {
                    masked[nbytes - 1] &= 0xFFu8 << (8 - bits % 8);
                }
                let want = KeyHash::from_u128(murmur3::murmur3_x64_128(
                    &masked,
                    seed ^ bits.rotate_left(16),
                ));
                for len in [nbytes, 8, 15, 16, 40] {
                    if len >= nbytes {
                        assert_eq!(hasher.hash_prefix(&key[..len], bits), want, "{bits} of {len}");
                    }
                }
            }
        }
    }

    #[test]
    fn keyhash_u128_roundtrip() {
        let h = KeyHash { h1: 0xDEAD_BEEF, h2: 0xCAFE_BABE };
        assert_eq!(KeyHash::from_u128((0xCAFE_BABE << 64) | 0xDEAD_BEEF), h);
    }

    #[test]
    fn prefix_hash_distinguishes_lengths() {
        let hasher = PrefixHasher::new(HashFamily::Murmur3, 7);
        let key = [0xAB, 0xCD, 0xEF, 0x12];
        // Same bytes, different advertised bit lengths -> different hashes.
        assert_ne!(hasher.hash_prefix(&key, 16), hasher.hash_prefix(&key, 24));
        // A 12-bit prefix must ignore the low nibble of byte 1.
        let other = [0xAB, 0xC7, 0xFF, 0xFF];
        assert_eq!(hasher.hash_prefix(&key, 12), hasher.hash_prefix(&other, 12));
        assert_ne!(hasher.hash_prefix(&key, 13), hasher.hash_prefix(&other, 13));
    }

    #[test]
    fn prefix_hash_matches_for_shared_prefixes() {
        let hasher = PrefixHasher::new(HashFamily::ClHash, 99);
        let a = [1, 2, 3, 4, 5, 6, 7, 8];
        let b = [1, 2, 3, 4, 0xFF, 0xFF, 0xFF, 0xFF];
        for bits in 1..=32 {
            assert_eq!(hasher.hash_prefix(&a, bits), hasher.hash_prefix(&b, bits), "bits={bits}");
        }
        for bits in 33..=64 {
            assert_ne!(hasher.hash_prefix(&a, bits), hasher.hash_prefix(&b, bits));
        }
    }

    #[test]
    fn hasher_codec_roundtrip_hashes_identically() {
        for family in [HashFamily::Murmur3, HashFamily::ClHash] {
            let hasher = PrefixHasher::new(family, 0x00C0_FFEE);
            let mut buf = Vec::new();
            hasher.encode_into(&mut buf);
            let mut r = ByteReader::new(&buf);
            let back = PrefixHasher::decode_from(&mut r).unwrap();
            r.finish().unwrap();
            let key = [9u8, 8, 7, 6, 5, 4, 3, 2];
            for bits in [1u32, 13, 64] {
                assert_eq!(back.hash_prefix(&key, bits), hasher.hash_prefix(&key, bits));
            }
            assert_eq!(back.hash_bytes(&key), hasher.hash_bytes(&key));
        }
        assert!(HashFamily::from_wire_tag(7).is_err());
    }

    #[test]
    fn long_prefix_path_is_consistent() {
        // Prefixes longer than the 256-byte stack buffer take the two-piece
        // path; masking must still work.
        let hasher = PrefixHasher::new(HashFamily::Murmur3, 3);
        let mut a = vec![0x55u8; 400];
        let mut b = a.clone();
        a[399] = 0b1010_0000;
        b[399] = 0b1010_0111;
        let bits = 399 * 8 + 3;
        assert_eq!(hasher.hash_prefix(&a, bits), hasher.hash_prefix(&b, bits));
        assert_ne!(hasher.hash_prefix(&a, bits + 5), hasher.hash_prefix(&b, bits + 5));
    }
}
