//! Zero-run-length block compression.
//!
//! The paper's RocksDB setup compresses lower levels with LZ4/ZSTD and uses
//! half-zero values engineered for a 0.5 compression ratio (§6.2). Neither
//! codec is available offline, so blocks are compressed with a simple
//! zero-RLE scheme that achieves the same ratio on the same value format:
//! alternating `(literal_len, literal bytes, zero_run_len)` tokens with
//! varint-free u16 lengths.
//!
//! A literal ends where the first run of four or more zero bytes starts,
//! or after exactly 65 535 bytes (`u16::MAX`), whichever comes first; the
//! zero run after it takes every zero byte that follows, up to 65 535, so
//! a 1–3 byte run a capped literal stops in front of is still encoded.
//! The encoder reads the input a `u64` at a time: a word with no zero byte
//! (the SWAR has-zero-byte test) is skipped whole, the first zero byte of
//! a word that has one is confirmed as a run of four bytewise, and a zero
//! run is counted whole words at a time. It gives up as soon as the output
//! is no shorter than the input.

/// The longest literal, and the longest zero run, one token holds.
const MAX_RUN: usize = u16::MAX as usize;
/// A literal ends in front of a zero run at least this long; shorter
/// runs stay inside it.
const MIN_ZERO_RUN: usize = 4;
const LOW_BITS: u64 = 0x0101_0101_0101_0101;
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// Compress `data`, appending the token stream to `out`. Returns `false`,
/// with `out` as it was, when compression would not shrink `data` (the
/// caller then stores it raw, like RocksDB does). A caller that reuses
/// `out` compresses without allocating once it has grown.
pub fn compress(data: &[u8], out: &mut Vec<u8>) -> bool {
    let n = data.len();
    let start = out.len();
    out.reserve(n / 2 + 16);
    let mut i = 0;
    while i < n {
        let lit_end = literal_end(data, i, n.min(i + MAX_RUN));
        let run_end = zero_run_end(data, lit_end, n.min(lit_end + MAX_RUN));
        if out.len() - start + 4 + (lit_end - i) >= n {
            out.truncate(start);
            return false;
        }
        // Both lengths are at most MAX_RUN, so the casts are exact.
        out.extend_from_slice(&((lit_end - i) as u16).to_le_bytes());
        out.extend_from_slice(&data[i..lit_end]);
        out.extend_from_slice(&((run_end - lit_end) as u16).to_le_bytes());
        i = run_end;
    }
    // Only an empty input, which appended nothing, gets here unshrunk.
    out.len() - start < n
}

/// Where the literal starting at `i` ends: at the first run of at least
/// [`MIN_ZERO_RUN`] zero bytes that starts before `cap` (it may run past
/// `cap`), else at `cap`.
fn literal_end(data: &[u8], mut i: usize, cap: usize) -> usize {
    loop {
        i = next_zero(data, i, cap);
        if i == cap {
            return cap;
        }
        let run_end = zero_run_end(data, i, data.len().min(i + MIN_ZERO_RUN));
        if run_end - i == MIN_ZERO_RUN {
            return i;
        }
        i = run_end;
    }
}

/// The first zero byte in `data[i..cap]`, or `cap` (also when `i >= cap`).
fn next_zero(data: &[u8], mut i: usize, cap: usize) -> usize {
    while i < cap {
        let Some(w) = word_at(data, i) else {
            return data[i..cap].iter().position(|&b| b == 0).map_or(cap, |k| i + k);
        };
        // Has-zero-byte: the lowest set bit marks the first zero byte
        // exactly (a borrow only carries upwards).
        let zeros = w.wrapping_sub(LOW_BITS) & !w & HIGH_BITS;
        if zeros != 0 {
            return cap.min(i + (zeros.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    cap
}

/// The end of the run of zero bytes starting at `i`, counting no further
/// than `end`.
fn zero_run_end(data: &[u8], mut i: usize, end: usize) -> usize {
    while i + 8 <= end {
        let Some(w) = word_at(data, i) else { break };
        if w != 0 {
            return i + (w.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    i + data[i..end].iter().take_while(|&&b| b == 0).count()
}

/// The little-endian `u64` at `data[i..i + 8]`, if all eight bytes exist.
fn word_at(data: &[u8], i: usize) -> Option<u64> {
    Some(u64::from_le_bytes(*data.get(i..)?.first_chunk::<8>()?))
}

/// Walk a token stream, handing each `(literal, zero_run_len)` to `f`.
/// Returns `None` when a token is cut short.
fn for_each_token(data: &[u8], mut f: impl FnMut(&[u8], usize)) -> Option<()> {
    let mut i = 0usize;
    while i < data.len() {
        let lit_len = u16::from_le_bytes(*data.get(i..)?.first_chunk::<2>()?) as usize;
        let lit = data.get(i + 2..i + 2 + lit_len)?;
        i += 2 + lit_len;
        let zlen = u16::from_le_bytes(*data.get(i..)?.first_chunk::<2>()?) as usize;
        i += 2;
        f(lit, zlen);
    }
    Some(())
}

/// Decompress into `out`, replacing what it held, and return whether the
/// token stream decoded to exactly `raw_len` bytes: `false` for a
/// malformed stream or another length (corrupt bytes). Decoding arbitrary
/// bytes must never panic.
///
/// `raw_len` comes from a header nothing may have checked, so the stream
/// is measured before anything is reserved: `out` grows only once the
/// tokens are known to decode to exactly `raw_len` bytes. A caller that
/// reuses `out` decompresses without allocating once it has grown.
pub fn decompress(data: &[u8], raw_len: usize, out: &mut Vec<u8>) -> bool {
    let mut decoded = 0usize;
    if for_each_token(data, |lit, zlen| decoded += lit.len() + zlen).is_none() || decoded != raw_len
    {
        return false;
    }
    // Zero the whole output once, then copy each literal into place: the
    // zero runs are already there.
    out.clear();
    out.resize(raw_len, 0);
    let mut at = 0;
    for_each_token(data, |lit, zlen| {
        out[at..at + lit.len()].copy_from_slice(lit);
        at += lit.len() + zlen;
    })
    .is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`super::decompress`] into a fresh buffer.
    fn decompress(data: &[u8], raw_len: usize) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        super::decompress(data, raw_len, &mut out).then_some(out)
    }

    /// [`compress`] into a fresh buffer, `None` when it stores raw.
    fn compressed(data: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        compress(data, &mut out).then_some(out)
    }

    /// The byte-at-a-time encoder [`compress`] replaced, kept as the
    /// reference its output must equal. Above 64 KiB it is not one: a 2–3
    /// byte zero run that crosses the 65 535-byte cap grows its literal to
    /// 65 536 or 65 537 bytes, whose `u16` length wraps.
    fn compress_bytewise(data: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(data.len() / 2 + 16);
        let mut i = 0usize;
        while i < data.len() {
            // Literal segment: until a run of >= 4 zeros or 65535 bytes.
            let lit_start = i;
            let mut zrun_start = data.len();
            while i < data.len() && i - lit_start < u16::MAX as usize {
                if data[i] == 0 {
                    let mut j = i;
                    while j < data.len() && data[j] == 0 && j - i < u16::MAX as usize {
                        j += 1;
                    }
                    if j - i >= 4 {
                        zrun_start = i;
                        break;
                    }
                    i = j;
                } else {
                    i += 1;
                }
            }
            let lit = &data[lit_start..i.min(zrun_start).max(lit_start)];
            let lit_end = lit_start + lit.len();
            // Zero run following the literal.
            let mut zlen = 0usize;
            let mut k = lit_end;
            while k < data.len() && data[k] == 0 && zlen < u16::MAX as usize {
                k += 1;
                zlen += 1;
            }
            out.extend_from_slice(&(lit.len() as u16).to_le_bytes());
            out.extend_from_slice(lit);
            out.extend_from_slice(&(zlen as u16).to_le_bytes());
            i = k;
        }
        (out.len() < data.len()).then_some(out)
    }

    /// The literal lengths of a token stream, in order.
    fn literal_lens(stream: &[u8]) -> Vec<usize> {
        let mut lens = Vec::new();
        let mut i = 0;
        while i + 2 <= stream.len() {
            let lit = u16::from_le_bytes([stream[i], stream[i + 1]]) as usize;
            lens.push(lit);
            i += 2 + lit + 2;
        }
        lens
    }

    /// A local xorshift, the same idiom as the other seeded tests.
    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// An input of `len` bytes from one of four shapes, chosen by `shape`:
    /// alternating non-zero and zero runs of 0–12 bytes; 4 KiB blocks of
    /// half-zero values behind a small entry header; all zeros; no zeros.
    fn shaped_input(shape: u64, len: usize, seed: u64) -> Vec<u8> {
        let mut rng = xorshift(seed | 1);
        let mut data = Vec::with_capacity(len + 4096);
        match shape % 4 {
            0 => {
                while data.len() < len {
                    let lit = (rng() % 13) as usize;
                    data.extend((0..lit).map(|_| (rng() % 255) as u8 + 1));
                    data.resize(data.len() + (rng() % 13) as usize, 0);
                }
            }
            1 => {
                while data.len() < len {
                    let block_end = data.len() + 4096;
                    data.extend_from_slice(&[1, 0, 0, 0]);
                    while data.len() < block_end {
                        let vlen = 8 + (rng() % 120) as usize;
                        data.extend_from_slice(&[0, 0, 8, 0, 0]);
                        data.extend_from_slice(&(vlen as u32).to_le_bytes());
                        data.extend_from_slice(&rng().to_be_bytes());
                        data.resize(data.len() + vlen / 2, 0);
                        data.extend((0..vlen - vlen / 2).map(|_| rng() as u8));
                    }
                }
            }
            2 => data.resize(len, 0),
            _ => data.extend((0..len).map(|_| (rng() % 255) as u8 + 1)),
        }
        data.truncate(len);
        data
    }

    #[test]
    fn roundtrip_half_zero_values() {
        // The paper's value format: half zeros, half random.
        let mut data = vec![0u8; 512];
        for (i, b) in data[256..].iter_mut().enumerate() {
            *b = (i * 37 + 11) as u8;
        }
        let c = compressed(&data).expect("half-zero data must compress");
        assert!(c.len() < 300, "ratio ~0.5 expected, got {} bytes", c.len());
        assert_eq!(decompress(&c, 512).unwrap(), data);
    }

    #[test]
    fn incompressible_data_returns_none() {
        let data: Vec<u8> = (0..512).map(|i| (i * 197 + 3) as u8 | 1).collect();
        assert!(compressed(&data).is_none());
    }

    #[test]
    fn compress_appends_behind_what_the_buffer_holds() {
        let data = [vec![5u8; 10], vec![0; 100]].concat();
        let mut out = b"head".to_vec();
        assert!(compress(&data, &mut out));
        assert_eq!(&out[..4], b"head");
        assert_eq!(decompress(&out[4..], data.len()).unwrap(), data);
        // Data that does not shrink leaves the buffer as it was.
        let before = out.clone();
        assert!(!compress(&[7u8; 10], &mut out));
        assert!(!compress(&[], &mut out));
        assert_eq!(out, before);
    }

    #[test]
    fn roundtrip_edge_cases() {
        for data in [
            vec![],
            vec![0u8; 1000],
            vec![7u8; 10],
            [vec![1, 2, 3], vec![0; 100], vec![4, 5], vec![0; 7], vec![9]].concat(),
        ] {
            // None = stored raw, nothing to verify.
            if let Some(c) = compressed(&data) {
                assert_eq!(decompress(&c, data.len()).unwrap(), data);
            }
        }
    }

    #[test]
    fn long_runs_split_at_u16_limit() {
        let data = vec![0u8; 200_000];
        let c = compressed(&data).unwrap();
        assert!(c.len() < 100);
        assert_eq!(decompress(&c, 200_000).unwrap(), data);
    }

    #[test]
    fn alternating_short_runs() {
        let mut data = Vec::new();
        for i in 0..200 {
            data.push(i as u8 + 1);
            data.extend_from_slice(&[0u8; 5]);
        }
        let c = compressed(&data).unwrap();
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn corrupt_streams_decode_to_none_not_a_panic() {
        // Truncations and bit flips of a valid stream must be rejected.
        let mut data = vec![0u8; 64];
        data[0] = 3;
        let c = compressed(&data).unwrap();
        for cut in 0..c.len() {
            let _ = decompress(&c[..cut], 64); // must not panic
        }
        let mut bad = c.clone();
        bad[0] ^= 0xFF; // literal length now overshoots the buffer
        assert!(decompress(&bad, 64).is_none());
        assert!(decompress(&c, 63).is_none(), "wrong raw_len must be rejected");
    }

    #[test]
    fn literals_stop_at_the_u16_cap_when_a_short_zero_run_crosses_it() {
        // A 1–3 byte zero run starting just before the 65 535-byte cap used
        // to be swallowed whole, growing the literal to 65 536–65 537 bytes
        // whose `u16` length wrapped: the block never decoded again.
        for zeros in 1..=3 {
            for start in MAX_RUN - 4..=MAX_RUN + 1 {
                let data = [vec![1u8; start], vec![0; zeros], vec![1; 10], vec![0; 1000]].concat();
                let c = compressed(&data).expect("the 1000-zero tail must compress");
                let lens = literal_lens(&c);
                // The first literal is cut at the cap exactly, as the
                // bytewise encoder cut it whenever it did not overshoot.
                assert_eq!(lens[0], MAX_RUN, "{zeros} zeros at {start}");
                assert!(lens.iter().all(|&l| l <= MAX_RUN), "{zeros} zeros at {start}");
                assert_eq!(
                    decompress(&c, data.len()).as_ref(),
                    Some(&data),
                    "{zeros} zeros at {start}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Byte-identical below 64 KiB, where the bytewise encoder never
        /// reaches the literal cap: every shape, at every length, gives
        /// the same tokens (or the same `None`) as the reference.
        #[test]
        fn equals_the_bytewise_encoder_below_64_kib(
            shape in 0u64..4, len in 0usize..=MAX_RUN, seed in 1u64..u64::MAX
        ) {
            // Half the cases stay near one 4 KiB block, the store's size.
            let len = if seed % 2 == 0 { len % 4200 } else { len };
            let data = shaped_input(shape, len, seed);
            let got = compressed(&data);
            proptest::prop_assert_eq!(&got, &compress_bytewise(&data), "shape {} len {}", shape, len);
            if let Some(c) = got {
                proptest::prop_assert_eq!(decompress(&c, len), Some(data));
            }
        }

        /// Above 64 KiB the reference is the bug, so only the contract is
        /// checked: every literal fits its `u16` and the stream decodes.
        /// Each input leads with a zero-free literal whose 1–3 byte zero
        /// run lands within a few bytes of the cap, then takes any shape.
        #[test]
        fn round_trips_above_64_kib(
            shape in 0u64..4,
            len in MAX_RUN + 1..3 * MAX_RUN,
            lead in MAX_RUN - 4..MAX_RUN + 1,
            zeros in 1usize..=3,
            seed in 1u64..u64::MAX
        ) {
            let mut data = shaped_input(3, lead, seed);
            data.resize(lead + zeros, 0);
            data.extend(shaped_input(shape, len, seed));
            let len = data.len();
            if let Some(c) = compressed(&data) {
                proptest::prop_assert!(literal_lens(&c).iter().all(|&l| l <= MAX_RUN));
                proptest::prop_assert_eq!(decompress(&c, len), Some(data));
            }
        }
    }
}
