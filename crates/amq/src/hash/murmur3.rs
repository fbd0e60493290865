//! MurmurHash3 x64_128, implemented from the public-domain reference
//! (Austin Appleby, 2008). This is the hash the paper uses for integer
//! workloads.

const C1: u64 = 0x87c3_7b91_1142_53d5;
const C2: u64 = 0x4cf5_ad43_2745_937f;

/// The 64-bit finalizer ("fmix64") from MurmurHash3. Also useful on its own
/// as a fast integer mixer.
#[inline]
pub fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

#[inline]
fn read_u64_le(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(b)
}

/// MurmurHash3 x64_128 of `data` with the given `seed`.
///
/// Returns the 128-bit hash with `h1` in the low 64 bits, matching the
/// reference implementation's output order.
#[inline]
pub fn murmur3_x64_128(data: &[u8], seed: u32) -> u128 {
    let len = data.len();
    let nblocks = len / 16;

    let mut h1 = seed as u64;
    let mut h2 = seed as u64;

    for i in 0..nblocks {
        let mut k1 = read_u64_le(&data[i * 16..]);
        let mut k2 = read_u64_le(&data[i * 16 + 8..]);

        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(31);
        k1 = k1.wrapping_mul(C2);
        h1 ^= k1;

        h1 = h1.rotate_left(27);
        h1 = h1.wrapping_add(h2);
        h1 = h1.wrapping_mul(5).wrapping_add(0x52dce729);

        k2 = k2.wrapping_mul(C2);
        k2 = k2.rotate_left(33);
        k2 = k2.wrapping_mul(C1);
        h2 ^= k2;

        h2 = h2.rotate_left(31);
        h2 = h2.wrapping_add(h1);
        h2 = h2.wrapping_mul(5).wrapping_add(0x38495ab5);
    }

    let tail = &data[nblocks * 16..];
    let mut k1: u64 = 0;
    let mut k2: u64 = 0;
    // The reference switch falls through from the longest case; replicate
    // that by accumulating bytes from the top down.
    let tlen = len & 15;
    for i in (8..tlen).rev() {
        k2 ^= (tail[i] as u64) << ((i - 8) * 8);
    }
    for i in (0..tlen.min(8)).rev() {
        k1 ^= (tail[i] as u64) << (i * 8);
    }
    finish(h1, h2, k1, k2, len)
}

/// [`murmur3_x64_128`] of a message shorter than one 16-byte block, given as
/// its two little-endian words (`k1` = bytes 0..8, `k2` = bytes 8..16;
/// every byte at or past `len` zero): what the reference computes for a
/// `len`-byte tail, without the byte loop.
#[inline]
pub fn murmur3_x64_128_short(k1: u64, k2: u64, len: usize, seed: u32) -> u128 {
    debug_assert!(len < 16);
    finish(seed as u64, seed as u64, k1, k2, len)
}

/// Mix the tail words into the state and finalize. The reference skips a
/// tail word no byte reaches; a zero word mixes to zero, so mixing both
/// unconditionally is the same function.
#[inline]
fn finish(mut h1: u64, mut h2: u64, mut k1: u64, mut k2: u64, len: usize) -> u128 {
    k2 = k2.wrapping_mul(C2);
    k2 = k2.rotate_left(33);
    k2 = k2.wrapping_mul(C1);
    h2 ^= k2;

    k1 = k1.wrapping_mul(C1);
    k1 = k1.rotate_left(31);
    k1 = k1.wrapping_mul(C2);
    h1 ^= k1;

    h1 ^= len as u64;
    h2 ^= len as u64;

    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);

    h1 = fmix64(h1);
    h2 = fmix64(h2);

    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);

    (h1 as u128) | ((h2 as u128) << 64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Canonical KAT formatting: the 16 output bytes as stored in memory by
    /// the reference implementation (h1 then h2, little-endian).
    fn hex(h: u128) -> String {
        let h1 = (h as u64).to_le_bytes();
        let h2 = ((h >> 64) as u64).to_le_bytes();
        h1.iter().chain(h2.iter()).map(|b| format!("{b:02x}")).collect()
    }

    /// Known-answer tests against the C++ reference implementation
    /// (MurmurHash3_x64_128 from smhasher).
    #[test]
    fn reference_vectors() {
        assert_eq!(hex(murmur3_x64_128(b"", 0)), "00000000000000000000000000000000");
        // Numeric form of this vector: h1=4610abe56eff5cb5 h2=51622daa78f83583.
        assert_eq!(hex(murmur3_x64_128(b"", 1)), "b55cff6ee5ab10468335f878aa2d6251");
        assert_eq!(hex(murmur3_x64_128(b"a", 0)), "897859f6655555855a890e51483ab5e6");
        // Numeric form: h1=f1512dd1d2d665df h2=2c326650a8f3c564.
        assert_eq!(hex(murmur3_x64_128(b"Hello, world!", 0)), "df65d6d2d12d51f164c5f3a85066322c");
        assert_eq!(
            hex(murmur3_x64_128(b"The quick brown fox jumps over the lazy dog", 0)),
            "6c1b07bc7bbc4be347939ac4a93c437a"
        );
    }

    #[test]
    fn short_form_is_the_reference_tail() {
        let data: Vec<u8> = (1..=15u8).map(|i| i.wrapping_mul(0x3B) | 0x80).collect();
        for seed in [0u32, 1, 0x9747_B28C] {
            for len in 0..16 {
                let mut words = [0u8; 16];
                words[..len].copy_from_slice(&data[..len]);
                let v = u128::from_le_bytes(words);
                assert_eq!(
                    murmur3_x64_128_short(v as u64, (v >> 64) as u64, len, seed),
                    murmur3_x64_128(&data[..len], seed),
                    "len {len} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn seed_changes_hash() {
        assert_ne!(murmur3_x64_128(b"proteus", 1), murmur3_x64_128(b"proteus", 2));
    }

    #[test]
    fn all_tail_lengths_are_exercised() {
        // Sanity: no two lengths of a constant byte string collide, covering
        // every tail-switch arm (0..=15 byte tails).
        let data = [0xA5u8; 64];
        let mut seen = std::collections::HashSet::new();
        for len in 0..=48 {
            assert!(seen.insert(murmur3_x64_128(&data[..len], 0)), "collision at len {len}");
        }
    }

    #[test]
    fn fmix64_is_bijective_on_samples() {
        // fmix64 is invertible; distinct inputs must produce distinct outputs.
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..10_000 {
            assert!(seen.insert(fmix64(i)));
        }
    }
}
