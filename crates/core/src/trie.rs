//! The Proteus coarse stage: the set K_l1 of `l1`-bit key prefixes (§4.1),
//! in whichever of two encodings is smaller at that depth.
//!
//! * **FST** — a uniform-depth succinct trie. Unlike SuRF, every branch
//!   extends to the chosen depth; a branch that becomes unique earlier is
//!   truncated in the LOUDS structure and its remaining bytes are stored
//!   explicitly ("rather than using the LOUDS-DS trie encoding", §4.1).
//!   Byte depths only, and ~10 bits per branch plus the suffix bytes.
//! * **Span bitmap** — one bit per `l1`-prefix from the smallest key's to
//!   the largest key's. Any bit depth; `KeySet::span_slots` bits, known
//!   exactly before building; no rank or select, because Proteus leaves
//!   carry no values. It wins where K_l1 fills a fair share of its own span
//!   — a file of uniform keys at 14–20 bits, where the byte-aligned FST
//!   resolves nothing at 16 bits and costs twice the budget at 24.
//!
//! Either way the stage represents exactly K_l1, answers through the one
//! [`ProteusTrie::walk_leaves`], and is priced before it is built by
//! [`ProteusTrie::cheapest`] — the one place the encoding is chosen, for the
//! model and the builder alike.

use crate::codec::{ByteReader, CodecError, WireWrite};
use crate::key::{
    advance_prefix, lcp_bytes, mask_tail, prefix_count, RegionWalk, Run, Walk, INLINE_KEY_BYTES,
};
use crate::keyset::KeySet;
use proteus_succinct::{BitVec, Fst, FstBuilder, ValueStore, Visit};

/// No span bitmap has more slots than this (8 GiB of bits): past it the
/// span count saturates and the encoding is not offered.
const MAX_SPAN_SLOTS: u64 = 1 << 36;

/// How a [`ProteusTrie`] stores K_l1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoarseEncoding {
    /// Uniform-depth succinct trie (byte depths).
    Fst,
    /// One bit per `l1`-prefix across the key set's span (any depth).
    SpanBitmap,
}

impl std::fmt::Display for CoarseEncoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CoarseEncoding::Fst => "fst",
            CoarseEncoding::SpanBitmap => "span",
        })
    }
}

/// The coarse stage of a Proteus filter: exactly the set of `depth_bits`-bit
/// prefixes of a key set.
#[derive(Debug, Clone)]
pub struct ProteusTrie {
    depth_bits: usize,
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    Fst(Box<Fst>),
    Span(SpanBitmap),
}

/// Bit `i` set iff the prefix `i` steps above `base` is in K_l1.
#[derive(Debug, Clone)]
struct SpanBitmap {
    /// The smallest key's prefix as a full-width key, bits past the depth
    /// zero.
    base: Vec<u8>,
    bits: BitVec,
}

/// The coarse stage of the design `(l1, ·)` over `keys` — none at depth 0 or
/// over no keys. The one constructor every Proteus variant builds through.
pub fn coarse_stage(keys: &KeySet, l1: usize) -> Option<ProteusTrie> {
    (l1 > 0 && !keys.is_empty()).then(|| ProteusTrie::build(keys, l1))
}

impl ProteusTrie {
    /// The smaller encoding of K_`l1` and its size in bits — the FST's from
    /// the key-set statistics, the bitmap's exact — or `None` where neither
    /// applies (a bit depth whose span is astronomically wide). Ties keep
    /// the FST.
    pub fn cheapest(keys: &KeySet, l1: usize) -> Option<(CoarseEncoding, u64)> {
        let fst = l1.is_multiple_of(8).then(|| (CoarseEncoding::Fst, keys.trie_mem_bits(l1 / 8)));
        let span = Self::span_bits(keys, l1).map(|bits| (CoarseEncoding::SpanBitmap, bits));
        match (fst, span) {
            (Some(fst), Some(span)) if span.1 < fst.1 => Some(span),
            (fst, span) => fst.or(span),
        }
    }

    /// Exact size in bits of the span bitmap over K_`l1` (its slots in whole
    /// words), or `None` where the span is astronomically wide.
    pub fn span_bits(keys: &KeySet, l1: usize) -> Option<u64> {
        let slots = keys.span_slots(l1, MAX_SPAN_SLOTS);
        (slots < MAX_SPAN_SLOTS).then(|| slots.next_multiple_of(64))
    }

    /// Build K_`l1` from the sorted key set in its [`Self::cheapest`]
    /// encoding. `l1` must be ≥ 1 and at most the key length, and one of
    /// the encodings must apply.
    pub fn build(keys: &KeySet, l1: usize) -> Self {
        let encoding = Self::cheapest(keys, l1).map(|c| c.0);
        assert!(encoding.is_some(), "no coarse encoding at {l1} bits: span too wide, not a byte");
        Self::build_as(keys, l1, encoding.unwrap_or(CoarseEncoding::Fst))
    }

    /// [`Self::build`] in a given encoding (an FST needs a byte depth).
    pub fn build_as(keys: &KeySet, l1: usize, encoding: CoarseEncoding) -> Self {
        assert!(l1 >= 1 && l1 <= keys.bits() && !keys.is_empty());
        let repr = match encoding {
            CoarseEncoding::Fst => {
                assert!(l1.is_multiple_of(8), "an FST stage needs a byte depth, got {l1} bits");
                Repr::Fst(Box::new(build_fst(keys, l1.div_ceil(8))))
            }
            CoarseEncoding::SpanBitmap => Repr::Span(SpanBitmap::build(keys, l1)),
        };
        ProteusTrie { depth_bits: l1, repr }
    }

    /// Depth in bits (`l1`).
    pub fn depth_bits(&self) -> usize {
        self.depth_bits
    }

    /// Which encoding holds the set.
    pub fn encoding(&self) -> CoarseEncoding {
        match self.repr {
            Repr::Fst(_) => CoarseEncoding::Fst,
            Repr::Span(_) => CoarseEncoding::SpanBitmap,
        }
    }

    /// Number of stored prefixes (= |K_l1|).
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Fst(fst) => fst.len(),
            Repr::Span(span) => span.bits.count_ones(),
        }
    }

    /// True for a stage with no prefixes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memory footprint in bits (a bitmap's: its whole words).
    pub fn size_bits(&self) -> u64 {
        match &self.repr {
            Repr::Fst(fst) => fst.size_bits(),
            Repr::Span(span) => span.bits.size_bits(),
        }
    }

    /// Serialize: an FST as its depth in bytes + the trie, a span bitmap as
    /// its depth in bits + the base key + the bits. Which of the two follows
    /// is the enclosing payload's to record ([`Self::encoding`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match &self.repr {
            Repr::Fst(fst) => {
                out.put_u32(self.depth_bits.div_ceil(8) as u32);
                fst.encode_into(out);
            }
            Repr::Span(span) => {
                out.put_u32(self.depth_bits as u32);
                out.extend_from_slice(&span.base);
                span.bits.encode_into(out);
            }
        }
    }

    /// Decode a payload written by [`ProteusTrie::encode_into`] in the given
    /// encoding, for keys of `width` bytes.
    pub fn decode_from(
        r: &mut ByteReader<'_>,
        encoding: CoarseEncoding,
        width: usize,
    ) -> Result<ProteusTrie, CodecError> {
        let depth = r.u32()? as usize;
        let depth_bits = match encoding {
            CoarseEncoding::Fst => depth.saturating_mul(8),
            CoarseEncoding::SpanBitmap => depth,
        };
        if depth_bits == 0 {
            return Err(CodecError::Invalid("trie depth zero"));
        }
        if depth_bits > width.saturating_mul(8) {
            return Err(CodecError::Invalid("proteus trie deeper than key"));
        }
        let repr = match encoding {
            CoarseEncoding::Fst => Repr::Fst(Box::new(Fst::decode_from(r)?)),
            CoarseEncoding::SpanBitmap => Repr::Span(SpanBitmap::decode_from(r, depth, width)?),
        };
        Ok(ProteusTrie { depth_bits, repr })
    }

    /// Visit every stored prefix within the closed window `[lo, hi]`
    /// (canonical full-width bounds; only their first `depth_bits` bits
    /// matter), in ascending order. The visitor receives the prefix in
    /// `depth_bits.div_ceil(8)` bytes, bits past the depth zero. Returns
    /// `true` if the visitor stopped.
    pub fn visit_leaves<F>(&self, lo: &[u8], hi: &[u8], f: F) -> bool
    where
        F: FnMut(&[u8]) -> Visit,
    {
        match &self.repr {
            Repr::Fst(fst) => visit_fst(fst, self.depth_bits.div_ceil(8), lo, hi, f),
            Repr::Span(span) => span.visit(self.depth_bits, lo, hi, f),
        }
    }

    /// The coarse stage at work: walk the `l`-bit regions of `walk`'s query
    /// inside each stored leaf's region, stopping at the first leaf whose
    /// walk does not come back [`Walk::Clear`].
    pub fn walk_leaves(
        &self,
        walk: &mut RegionWalk<'_>,
        l: usize,
        mut visit: impl FnMut(&mut Run<'_>) -> Walk,
    ) -> Walk {
        let mut end = Walk::Clear;
        self.visit_leaves(walk.lo, walk.hi, |leaf| {
            end = walk.walk(leaf, self.depth_bits, l, &mut visit);
            if end == Walk::Clear {
                Visit::Continue
            } else {
                Visit::Stop
            }
        });
        end
    }

    /// Does any stored prefix fall within `[lo, hi]`?
    pub fn overlaps(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.visit_leaves(lo, hi, |_| Visit::Stop)
    }
}

/// The FST over the `d`-byte prefixes of `keys`.
fn build_fst(keys: &KeySet, d: usize) -> Fst {
    // Branches: each key truncated at min(uniqueness depth, d) bytes;
    // keys sharing a d-byte prefix collapse into one branch.
    let n = keys.len();
    let mut branches: Vec<&[u8]> = Vec::with_capacity(n);
    let mut suffixes: Vec<&[u8]> = Vec::with_capacity(n);
    for i in 0..n {
        let key = keys.key(i);
        let prev_lcp = if i > 0 { lcp_bytes(keys.key(i - 1), key) } else { 0 };
        let next_lcp = if i + 1 < n { lcp_bytes(key, keys.key(i + 1)) } else { 0 };
        let ub = (prev_lcp.max(next_lcp) + 1).min(d);
        if ub == d && prev_lcp >= d {
            // Same d-byte prefix as the previous key: already represented.
            continue;
        }
        branches.push(&key[..ub]);
        suffixes.push(&key[ub..d]);
    }
    let (mut fst, slot_to_idx) = FstBuilder::new().build(&branches);
    // Reorder suffixes into slot order.
    let by_slot: Vec<&[u8]> = slot_to_idx.iter().map(|&i| suffixes[i as usize]).collect();
    fst.set_values(ValueStore::from_byte_suffixes(&by_slot));
    fst
}

/// [`ProteusTrie::visit_leaves`] over an FST of `d`-byte prefixes.
fn visit_fst<F>(fst: &Fst, d: usize, lo: &[u8], hi: &[u8], mut f: F) -> bool
where
    F: FnMut(&[u8]) -> Visit,
{
    let lo_d = &lo[..d];
    let hi_d = &hi[..d];
    let mut full = Vec::with_capacity(d);
    fst.visit_overlapping(lo_d, hi_d, &mut |branch, slot| {
        full.clear();
        full.extend_from_slice(branch);
        full.extend_from_slice(fst.values().bytes(slot));
        debug_assert_eq!(full.len(), d);
        // Branches that are proper prefixes of a bound are reported
        // conservatively by the FST; the reconstructed prefix decides
        // exactly.
        if full.as_slice() < lo_d || full.as_slice() > hi_d {
            return Visit::Continue;
        }
        f(&full)
    })
}

impl SpanBitmap {
    fn build(keys: &KeySet, l1: usize) -> Self {
        let slots = keys.span_slots(l1, MAX_SPAN_SLOTS);
        assert!(slots < MAX_SPAN_SLOTS, "span of {l1}-bit prefixes too wide for a bitmap");
        let mut base = keys.key(0).to_vec();
        mask_tail(&mut base, l1);
        let mut bits = BitVec::zeros(slots as usize);
        for key in keys.iter() {
            bits.set(prefix_count(&base, key, l1, slots) as usize - 1);
        }
        SpanBitmap { base, bits }
    }

    /// Decode a bitmap at depth `l1` (already checked against `width`).
    fn decode_from(r: &mut ByteReader<'_>, l1: usize, width: usize) -> Result<Self, CodecError> {
        let base = r.take(width)?.to_vec();
        // `BitVec` sizes its allocation from the bytes that are left, and
        // rejects set bits past its length.
        let bits = BitVec::decode_from(r)?;
        let slots = bits.len() as u64;
        let mut masked = base.clone();
        mask_tail(&mut masked, l1);
        if masked != base {
            return Err(CodecError::Invalid("span bitmap base not a prefix"));
        }
        // The last slot must still be a prefix: `slots` of them fit between
        // the base and the top of the key space.
        let top = vec![0xFF; width];
        if slots == 0 || prefix_count(&base, &top, l1, slots) < slots {
            return Err(CodecError::Invalid("span bitmap runs past the key space"));
        }
        Ok(SpanBitmap { base, bits })
    }

    /// [`ProteusTrie::visit_leaves`]: the set bits between the slots of
    /// `lo`'s and `hi`'s prefixes. A window that misses the span, or one
    /// over clear bits only, costs two subtractions and a word scan.
    fn visit<F>(&self, l1: usize, lo: &[u8], hi: &[u8], mut f: F) -> bool
    where
        F: FnMut(&[u8]) -> Visit,
    {
        let slots = self.bits.len() as u64;
        // The base's tail is zero, so whole-key order against it is prefix
        // order.
        if hi < self.base.as_slice() {
            return false;
        }
        let first = if lo <= self.base.as_slice() {
            0
        } else {
            prefix_count(&self.base, lo, l1, slots + 1) - 1
        };
        if first >= slots {
            return false;
        }
        let last = (prefix_count(&self.base, hi, l1, slots) - 1) as usize;
        // The leaf under the cursor: `base` advanced to the set bit.
        let n = l1.div_ceil(8);
        let mut inline = [0u8; INLINE_KEY_BYTES];
        let mut heap = Vec::new();
        let leaf = if n <= INLINE_KEY_BYTES {
            &mut inline[..n]
        } else {
            heap.resize(n, 0);
            heap.as_mut_slice()
        };
        leaf.copy_from_slice(&self.base[..n]);
        let mut at = 0usize;
        let mut from = first as usize;
        while let Some(bit) = self.bits.next_set_bit(from).filter(|&bit| bit <= last) {
            advance_prefix(leaf, l1, (bit - at) as u64);
            at = bit;
            if f(leaf) == Visit::Stop {
                return true;
            }
            from = bit + 1;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{key_u64, u64_key};
    use crate::testutil::splitmix;
    use CoarseEncoding::{Fst as AsFst, SpanBitmap as AsSpan};

    /// The stored prefixes in `[lo, hi]`, as their values in the top
    /// `depth_bits` bits of a `u64`.
    fn collect(trie: &ProteusTrie, lo: u64, hi: u64) -> Vec<u64> {
        let mut out = Vec::new();
        trie.visit_leaves(&u64_key(lo), &u64_key(hi), |p| {
            assert_eq!(p.len(), trie.depth_bits().div_ceil(8));
            let mut full = [0u8; 8];
            full[..p.len()].copy_from_slice(p);
            out.push(key_u64(&full));
            Visit::Continue
        });
        out
    }

    fn reference(keys: &[u64], l1: usize, lo: u64, hi: u64) -> Vec<u64> {
        let prefix = |k: u64| k >> (64 - l1) << (64 - l1);
        let mut prefixes: Vec<u64> = keys.iter().map(|&k| prefix(k)).collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        prefixes.into_iter().filter(|&p| p >= prefix(lo) && p <= prefix(hi)).collect()
    }

    #[test]
    fn trie_represents_exactly_k_l1() {
        // Keys inside one 2^20 span, so a bitmap exists at every depth.
        let keys: Vec<u64> = vec![
            0x1111_FFFF_FFF0_0000,
            0x1111_FFFF_FFF0_0222,
            0x1111_FFFF_FFF9_0001,
            0x1111_FFFF_FFF9_0042,
            0x1111_FFFF_FFFF_FFFF,
        ];
        let ks = KeySet::from_u64(&keys);
        for l1 in 1..=64usize {
            let span = ProteusTrie::build_as(&ks, l1, AsSpan);
            assert_eq!(span.len() as u64, ks.unique_prefixes(l1), "depth {l1}");
            assert_eq!(span.depth_bits(), l1);
            let leaves = collect(&span, 0, u64::MAX);
            assert_eq!(leaves, reference(&keys, l1, 0, u64::MAX), "depth {l1}");
            if l1 % 8 == 0 {
                // One set, two encodings.
                let fst = ProteusTrie::build_as(&ks, l1, AsFst);
                assert_eq!(fst.len(), span.len(), "depth {l1}");
                assert_eq!(collect(&fst, 0, u64::MAX), leaves, "depth {l1}");
            }
        }
        // Keys across the whole space: the FST at every byte depth, the
        // bitmap wherever its span is not astronomical.
        let keys: Vec<u64> =
            vec![0x1111_0000_0000_0000, 0x1111_2222_0000_0000, 0x9999_0000_0000_0001, 42];
        let ks = KeySet::from_u64(&keys);
        for d in 1..=8usize {
            let trie = ProteusTrie::build_as(&ks, d * 8, AsFst);
            assert_eq!(trie.len() as u64, ks.unique_prefixes(d * 8), "depth {d}");
            assert_eq!(collect(&trie, 0, u64::MAX), reference(&keys, d * 8, 0, u64::MAX), "{d}");
        }
        for l1 in 1..=30usize {
            let span = ProteusTrie::build_as(&ks, l1, AsSpan);
            assert_eq!(collect(&span, 0, u64::MAX), reference(&keys, l1, 0, u64::MAX), "{l1}");
        }
        assert_eq!(ProteusTrie::span_bits(&ks, 40), None);
        assert_eq!(ProteusTrie::cheapest(&ks, 40).map(|c| c.0), Some(AsFst));
        assert_eq!(ProteusTrie::cheapest(&ks, 41), None);
    }

    #[test]
    fn window_queries_match_reference() {
        let mut s = 77u64;
        let keys: Vec<u64> = (0..500).map(|_| splitmix(&mut s)).collect();
        let ks = KeySet::from_u64(&keys);
        let tries =
            [(16, AsFst), (32, AsFst), (64, AsFst), (16, AsSpan), (5, AsSpan), (19, AsSpan)];
        for (l1, encoding) in tries {
            let trie = ProteusTrie::build_as(&ks, l1, encoding);
            for i in 0..200 {
                let (a, b) = (splitmix(&mut s), splitmix(&mut s));
                // Wide windows, and narrow ones around a key's region.
                let (lo, hi) = match i % 2 {
                    0 => (a.min(b), a.max(b)),
                    _ => {
                        let k = keys[a as usize % keys.len()];
                        (k.saturating_sub(b >> 20), k.saturating_add(b >> 22))
                    }
                };
                assert_eq!(
                    collect(&trie, lo, hi),
                    reference(&keys, l1, lo, hi),
                    "{encoding} at {l1}: [{lo:#x}, {hi:#x}]"
                );
            }
        }
    }

    #[test]
    fn overlaps_answers_emptiness() {
        let keys: Vec<u64> = vec![100 << 32, 200 << 32];
        let ks = KeySet::from_u64(&keys);
        for encoding in [AsFst, AsSpan] {
            let trie = ProteusTrie::build_as(&ks, 32, encoding);
            assert!(trie.overlaps(&u64_key(100 << 32), &u64_key(100 << 32)));
            assert!(trie.overlaps(&u64_key(0), &u64_key(u64::MAX)));
            // At 4-byte depth, keys live in regions 100 and 200 (of the top
            // 32 bits); region 150 is empty.
            assert!(!trie.overlaps(&u64_key(150 << 32), &u64_key((151 << 32) - 1)));
            // Sub-region granularity is invisible to the stage: anything
            // inside an occupied 32-bit region reports overlap.
            assert!(trie.overlaps(&u64_key(100 << 32 | 5), &u64_key(100 << 32 | 9)));
            // Wholly below, wholly above, and straddling either end.
            assert!(!trie.overlaps(&u64_key(0), &u64_key((100 << 32) - 1)));
            assert!(!trie.overlaps(&u64_key(201 << 32), &u64_key(u64::MAX)));
            assert!(trie.overlaps(&u64_key(7), &u64_key(100 << 32)));
            assert!(trie.overlaps(&u64_key(200 << 32 | 0xFFFF_FFFF), &u64_key(u64::MAX)));
        }
    }

    #[test]
    fn suffix_reconstruction_is_exact() {
        // A single key forces maximal truncation: branch 1 byte, suffix d-1
        // — and the one-slot bitmap, whose base is the key itself.
        let ks = KeySet::from_u64(&[0xDEAD_BEEF_CAFE_F00D]);
        for encoding in [AsFst, AsSpan] {
            let trie = ProteusTrie::build_as(&ks, 64, encoding);
            assert_eq!(collect(&trie, 0, u64::MAX), vec![0xDEAD_BEEF_CAFE_F00D]);
            // Precise window checks around the reconstructed key.
            assert!(trie.overlaps(&u64_key(0xDEAD_BEEF_CAFE_F00D), &u64_key(u64::MAX)));
            assert!(!trie.overlaps(&u64_key(0xDEAD_BEEF_CAFE_F00E), &u64_key(u64::MAX)));
            assert!(!trie.overlaps(&u64_key(0), &u64_key(0xDEAD_BEEF_CAFE_F00C)));
        }
        assert_eq!(ProteusTrie::build(&ks, 64).size_bits(), 64, "one word beats any FST");
    }

    #[test]
    fn a_span_reaches_the_ends_of_the_key_space() {
        // Keys at 0 and at all-ones: the span is the whole prefix space, its
        // last slot the all-ones prefix, and no window can fall outside it.
        let keys = [0u64, 1, 0x8000_0000_0000_0000, u64::MAX - 1, u64::MAX];
        let ks = KeySet::from_u64(&keys);
        for l1 in [1usize, 2, 7, 8, 13, 16] {
            let trie = ProteusTrie::build_as(&ks, l1, AsSpan);
            assert_eq!(trie.size_bits(), (1u64 << l1).next_multiple_of(64), "depth {l1}");
            assert_eq!(collect(&trie, 0, u64::MAX), reference(&keys, l1, 0, u64::MAX));
            assert!(trie.overlaps(&u64_key(u64::MAX), &u64_key(u64::MAX)));
            assert!(trie.overlaps(&u64_key(0), &u64_key(0)));
            let mid = (0x4000_0000_0000_0000, 0x7FFF_FFFF_FFFF_FFFF);
            assert_eq!(trie.overlaps(&u64_key(mid.0), &u64_key(mid.1)), l1 == 1, "depth {l1}");
        }
    }

    /// Uniform keys, clustered keys (top 24 bits shared), one key, strings.
    fn key_sets() -> Vec<(&'static str, KeySet)> {
        let mut s = 3u64;
        let uniform: Vec<u64> = (0..20_000).map(|_| splitmix(&mut s)).collect();
        let few: Vec<u64> = (0..300).map(|_| splitmix(&mut s)).collect();
        let clustered: Vec<u64> =
            (0..5_000).map(|_| (0xABu64 << 56) | (splitmix(&mut s) >> 24)).collect();
        let words: Vec<Vec<u8>> = (0..2_000)
            .map(|_| {
                let v = splitmix(&mut s);
                format!("https://example.org/{:x}/{}", v % 37, v % 9_973).into_bytes()
            })
            .collect();
        vec![
            ("uniform", KeySet::from_u64(&uniform)),
            ("few", KeySet::from_u64(&few)),
            ("clustered", KeySet::from_u64(&clustered)),
            ("one", KeySet::from_u64(&[42])),
            ("strings", KeySet::from_strings(&words, 40)),
        ]
    }

    #[test]
    fn size_tracks_estimate() {
        // What `ablation` prints (estimate vs actual), as an assertion. The
        // estimate mirrors the structure word for word; the tolerance is for
        // the cutoff's rounding, not for a constant left out.
        for (name, ks) in key_sets() {
            for d in 1..=ks.width().min(8) {
                let actual = ProteusTrie::build_as(&ks, d * 8, AsFst).size_bits();
                let estimate = ks.trie_mem_bits(d);
                assert!(
                    actual.abs_diff(estimate) <= (actual / 20).max(64),
                    "{name} at {d} bytes: estimated {estimate}, built {actual}"
                );
            }
        }
    }

    #[test]
    fn the_model_prices_a_span_bitmap_exactly() {
        for (name, ks) in key_sets() {
            for l1 in 1..=ks.bits().min(64) {
                let Some(bits) = ProteusTrie::span_bits(&ks, l1).filter(|&b| b <= 1 << 22) else {
                    continue;
                };
                let span = ProteusTrie::build_as(&ks, l1, AsSpan);
                assert_eq!(span.size_bits(), bits, "{name} at {l1} bits");
                // And `build` takes the bitmap exactly when it is the
                // smaller of the two.
                let (encoding, mem) = ProteusTrie::cheapest(&ks, l1).unwrap();
                let built = ProteusTrie::build(&ks, l1);
                assert_eq!(built.encoding(), encoding, "{name} at {l1} bits");
                match encoding {
                    AsSpan => assert_eq!((built.size_bits(), mem), (bits, bits)),
                    AsFst => assert!(mem <= bits && l1 % 8 == 0, "{name} at {l1} bits"),
                }
            }
        }
    }
}
