//! Bit-level prefix arithmetic over canonical keys.
//!
//! Every filter in this workspace canonicalizes keys to fixed-width
//! big-endian byte arrays: `u64` keys become 8 bytes (preserving integer
//! order), variable-length strings are padded with trailing NUL bytes to the
//! filter's width (preserving lexicographic order, §7.1 of the paper). All
//! CPFPR quantities — LCPs, region counts |Q_l|, end-region sizes |L| and
//! |R| — reduce to the saturating big-integer helpers in this module, which
//! work unchanged for 64-bit integers and 1440-bit strings.
//!
//! Bit indexing is big-endian: bit 0 is the most significant bit of byte 0,
//! so "the first `l` bits" of a key is its length-`l` prefix in the paper's
//! sense.

/// Canonicalize a `u64` into its 8-byte big-endian form (order-preserving).
#[inline]
pub fn u64_key(x: u64) -> [u8; 8] {
    x.to_be_bytes()
}

/// Read back a canonical 8-byte key as a `u64`.
#[inline]
pub fn key_u64(k: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&k[..8]);
    u64::from_be_bytes(b)
}

/// The first 8 bytes of a key as a big-endian `u64`, left-aligned: a
/// shorter key is zero-filled on the right. Two keys' heads compare as their
/// first 8 bytes do, and for keys of at most 8 bytes they are the keys.
#[inline]
pub fn key_head(k: &[u8]) -> u64 {
    match k.first_chunk::<8>() {
        Some(head) => u64::from_be_bytes(*head),
        None => {
            let mut b = [0u8; 8];
            b[..k.len()].copy_from_slice(k);
            u64::from_be_bytes(b)
        }
    }
}

/// Pad `s` with trailing NUL bytes to `width` bytes (§7.1: "padding short
/// keys and queries with trailing null bytes to a chosen prefix length").
/// Truncates if `s` is longer than `width`.
pub fn pad_key(s: &[u8], width: usize) -> Vec<u8> {
    let mut v = vec![0u8; width];
    pad_key_into(s, &mut v);
    v
}

/// [`pad_key`] into a caller-owned buffer, whose length is the width.
#[inline]
pub fn pad_key_into(s: &[u8], buf: &mut [u8]) {
    let n = s.len().min(buf.len());
    buf[..n].copy_from_slice(&s[..n]);
    buf[n..].fill(0);
}

/// Length in bits of the longest common prefix of two equal-width keys.
pub fn lcp_bits(a: &[u8], b: &[u8]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        if x != y {
            return i * 8 + (x ^ y).leading_zeros() as usize;
        }
    }
    a.len() * 8
}

/// Length in bytes of the longest common prefix.
pub fn lcp_bytes(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// Zero all bits at positions ≥ `l` (i.e. keep only the `l`-bit prefix).
pub fn mask_tail(buf: &mut [u8], l: usize) {
    let full = l / 8;
    let rem = l % 8;
    if full < buf.len() {
        if rem != 0 {
            buf[full] &= 0xFFu8 << (8 - rem);
            for b in &mut buf[full + 1..] {
                *b = 0;
            }
        } else {
            for b in &mut buf[full..] {
                *b = 0;
            }
        }
    }
}

/// Set all bits at positions ≥ `l` to one (the largest key sharing the
/// `l`-bit prefix).
pub fn set_tail_ones(buf: &mut [u8], l: usize) {
    let full = l / 8;
    let rem = l % 8;
    if full < buf.len() {
        if rem != 0 {
            buf[full] |= 0xFFu8 >> rem;
            for b in &mut buf[full + 1..] {
                *b = 0xFF;
            }
        } else {
            for b in &mut buf[full..] {
                *b = 0xFF;
            }
        }
    }
}

/// Add one at bit position `l - 1` — i.e. step to the next `l`-bit prefix —
/// leaving bits ≥ `l` untouched (callers keep them zeroed). Returns `true`
/// on overflow past the all-ones prefix.
#[inline]
pub fn increment_prefix(buf: &mut [u8], l: usize) -> bool {
    if l == 0 {
        return true;
    }
    // One byte-wide add at the prefix's last bit, then the carry ripples up.
    let mut byte = (l - 1) / 8;
    let mut add = 0x80u8 >> ((l - 1) % 8);
    loop {
        let (sum, carry) = buf[byte].overflowing_add(add);
        buf[byte] = sum;
        if !carry {
            return false;
        }
        if byte == 0 {
            return true;
        }
        byte -= 1;
        add = 1;
    }
}

/// [`increment_prefix`] `by` steps at once: add `by` to the `l`-bit prefix as
/// a big-endian integer, leaving bits ≥ `l` untouched. Returns `true` on
/// overflow past the all-ones prefix.
pub fn advance_prefix(buf: &mut [u8], l: usize, by: u64) -> bool {
    if l == 0 {
        return by != 0;
    }
    let mut byte = (l - 1) / 8;
    // `by` aligned to the prefix's last bit, consumed a byte at a time.
    let mut carry = (by as u128) << (7 - (l - 1) % 8);
    while carry != 0 {
        let sum = buf[byte] as u128 + (carry & 0xFF);
        buf[byte] = sum as u8;
        carry = (carry >> 8) + (sum >> 8);
        if byte == 0 {
            return carry != 0;
        }
        byte -= 1;
    }
    false
}

/// How a [`RegionWalk::walk`] ended. The three outcomes stay distinct all
/// the way up: an emptiness filter folds `Hit` and `Exhausted` into its safe
/// positive, a range count must not mistake either `Exhausted` or a partial
/// sum for `Clear`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Every region of the window was visited and no visitor stopped.
    Clear,
    /// A visitor stopped the walk (a positive probe).
    Hit,
    /// The probe budget ran out with at least one region unvisited.
    Exhausted,
}

/// The probes one query may still spend (the per-query probe cap). Shared
/// by reference so the walks a query nests — 2PBF's fine walk inside its
/// coarse one, one fine walk per trie leaf, Rosetta's walk of each level
/// inside a positive region of the level above — draw on the same
/// allowance; [`Run::draw`] is the only spender.
#[derive(Debug)]
pub struct ProbeBudget(std::cell::Cell<u64>);

impl ProbeBudget {
    /// A budget of `probes` region visits.
    pub fn new(probes: u64) -> Self {
        ProbeBudget(std::cell::Cell::new(probes))
    }

    /// Visits not yet spent.
    pub fn left(&self) -> u64 {
        self.0.get()
    }

    #[inline]
    fn spend(&self) -> bool {
        let left = self.0.get();
        self.0.set(left.saturating_sub(1));
        left > 0
    }
}

/// The one enumeration of the `l`-bit regions of a query window, and the
/// one clamp of the query to a coarser region — what every Protean filter
/// does between its coarse stage (nothing, a Bloom filter, a trie) and its
/// fine Bloom probes, and what Rosetta's chain of per-level Bloom filters
/// does at each level. Holds the query bounds, the shared [`ProbeBudget`]
/// and the cursor scratch, so a query sets its scratch up once however many
/// regions or trie leaves it walks — on the stack for keys up to
/// [`INLINE_KEY_BYTES`], which covers every width the store accepts.
#[derive(Debug)]
pub struct RegionWalk<'q> {
    pub(crate) lo: &'q [u8],
    pub(crate) hi: &'q [u8],
    budget: &'q ProbeBudget,
    /// `cursor ‖ last`, each one canonical key wide.
    scratch: Scratch,
}

/// Widest canonical key whose walk needs no heap allocation.
pub const INLINE_KEY_BYTES: usize = 64;

#[derive(Debug)]
enum Scratch {
    Inline([u8; 2 * INLINE_KEY_BYTES]),
    Heap(Vec<u8>),
}

/// The unvisited rest of a window, handed to a [`RegionWalk::walk`] visitor:
/// consecutive `l`-bit regions in ascending order, each drawn with
/// [`Run::draw`] at the cost of one probe. A visitor takes as many as it can
/// use at once — one, for a per-region stage; a chunk, for a Bloom stage
/// that hashes the chunk up front so its probes overlap — and the walk calls
/// it again for what is left.
#[derive(Debug)]
pub struct Run<'w> {
    cur: &'w mut [u8],
    last: &'w [u8],
    l: usize,
    budget: &'w ProbeBudget,
    /// Has the region at `cur` been handed out?
    visited: bool,
}

impl Run<'_> {
    /// Is there a region at `cur` that has not been handed out? Steps the
    /// cursor past a visited one; `false` once the window is done.
    #[inline]
    fn pending(&mut self) -> bool {
        if self.visited {
            if *self.cur == *self.last || increment_prefix(self.cur, self.l) {
                return false;
            }
            self.visited = false;
        }
        true
    }

    /// The next region — a full-width key with every bit past `l` zero — or
    /// `None` when the window is done or its next region cannot be paid for.
    #[inline]
    pub fn draw(&mut self) -> Option<&[u8]> {
        if !self.pending() || !self.budget.spend() {
            return None;
        }
        self.visited = true;
        Some(self.cur)
    }
}

impl<'q> RegionWalk<'q> {
    /// A walker over the closed query `[lo, hi]` (equal-width canonical
    /// keys, `lo <= hi`).
    pub fn new(lo: &'q [u8], hi: &'q [u8], budget: &'q ProbeBudget) -> Self {
        debug_assert_eq!(lo.len(), hi.len());
        debug_assert!(lo <= hi);
        let scratch = if lo.len() <= INLINE_KEY_BYTES {
            Scratch::Inline([0u8; 2 * INLINE_KEY_BYTES])
        } else {
            Scratch::Heap(vec![0u8; 2 * lo.len()])
        };
        RegionWalk { lo, hi, budget, scratch }
    }

    /// Visit, in ascending order, every `l`-bit region that intersects both
    /// the query and the `within`-bit region whose prefix is the first
    /// `within` bits of `region` (`(&[], 0)` is the whole key space: no
    /// clamp). The visitor is handed the rest of the window as a [`Run`],
    /// must draw at least one region from it, and steers the walk: `Clear`
    /// moves on to whatever the run still holds, anything else ends the walk
    /// with that outcome. Each region drawn costs one probe; a region that
    /// cannot be paid for ends the walk as [`Walk::Exhausted`], never as
    /// `Clear` — also when the budget runs out in the middle of a visitor's
    /// chunk and the part it could pay for came back clear.
    ///
    /// After `Clear` or `Exhausted` the budget has been charged exactly one
    /// probe per region visited, whatever the chunking. After a `Hit` the
    /// query is over: a chunking visitor has paid for its whole chunk, not
    /// just up to the hit, and that remainder is not observable.
    #[inline]
    pub fn walk(
        &mut self,
        region: &[u8],
        within: usize,
        l: usize,
        mut visit: impl FnMut(&mut Run<'_>) -> Walk,
    ) -> Walk {
        debug_assert!(within <= region.len() * 8 && l <= self.lo.len() * 8);
        let width = self.lo.len();
        let scratch = match &mut self.scratch {
            Scratch::Inline(buf) => &mut buf[..2 * width],
            Scratch::Heap(buf) => buf,
        };
        let (cur, last) = scratch.split_at_mut(width);
        if within == 0 {
            // The whole key space: nothing to clamp. Worth its branch — the
            // general form below costs a trie-less one-probe query ~40 %.
            cur.copy_from_slice(self.lo);
            last.copy_from_slice(self.hi);
        } else {
            // Query ∩ region = [max(lo, region·0…0), min(hi, region·1…1)].
            let n = within.div_ceil(8);
            cur[..n].copy_from_slice(&region[..n]);
            mask_tail(cur, within);
            if *cur < *self.lo {
                cur.copy_from_slice(self.lo);
            }
            last[..n].copy_from_slice(&region[..n]);
            set_tail_ones(last, within);
            if *last > *self.hi {
                last.copy_from_slice(self.hi);
            }
            if *cur > *last {
                return Walk::Clear; // the region misses the query
            }
        }
        mask_tail(cur, l);
        mask_tail(last, l);
        let mut run = Run { cur, last, l, budget: self.budget, visited: false };
        while run.pending() {
            let left = self.budget.left();
            if left == 0 {
                return Walk::Exhausted;
            }
            match visit(&mut run) {
                Walk::Clear => debug_assert!(self.budget.left() < left, "a visitor must draw"),
                stop => return stop,
            }
        }
        Walk::Clear
    }
}

/// Value of bit `i` of the key.
#[inline]
pub fn get_bit(buf: &[u8], i: usize) -> bool {
    (buf[i / 8] >> (7 - i % 8)) & 1 == 1
}

/// The value of bits `[from, to)` as an integer, saturating at `cap`.
///
/// Used for the in-region offsets that determine the paper's end-region
/// sizes |L| and |R| (§3.1): bits `l1..l2` of a bound give its position
/// within its `l1`-region at `l2` granularity.
pub fn bit_slice(buf: &[u8], from: usize, to: usize, cap: u64) -> u64 {
    debug_assert!(from <= to && to <= buf.len() * 8);
    let mut acc: u64 = 0;
    let mut i = from;
    // Byte-aligned fast path once aligned.
    while i < to {
        if i.is_multiple_of(8) && i + 8 <= to {
            if acc > (cap >> 8) {
                return cap;
            }
            acc = (acc << 8) | buf[i / 8] as u64;
            i += 8;
        } else {
            if acc > (cap >> 1) {
                return cap;
            }
            acc = (acc << 1) | get_bit(buf, i) as u64;
            i += 1;
        }
        if acc >= cap {
            // acc can only grow (shift-or); once at cap it stays saturated.
            // Continue scanning is pointless.
            return cap;
        }
    }
    acc.min(cap)
}

/// Number of distinct `l`-bit prefixes intersecting `[lo, hi]` — the
/// paper's |Q_l| — saturating at `cap`. Assumes `lo <= hi`.
///
/// Computed as `hi_l - lo_l + 1` by byte-wise big-integer subtraction that
/// saturates early, so it is exact for arbitrarily wide keys.
pub fn prefix_count(lo: &[u8], hi: &[u8], l: usize, cap: u64) -> u64 {
    debug_assert_eq!(lo.len(), hi.len());
    debug_assert!(lo <= hi);
    if l == 0 {
        return 1;
    }
    let cap = cap.max(1) as i128;
    let full = l / 8;
    let rem = l % 8;
    let mut d: i128 = 0;
    for i in 0..full {
        d = d * 256 + (hi[i] as i128 - lo[i] as i128);
        if d > cap {
            return cap as u64;
        }
    }
    if rem != 0 {
        let mask = 0xFFu8 << (8 - rem);
        d = (d << rem)
            + (((hi[full] & mask) >> (8 - rem)) as i128 - ((lo[full] & mask) >> (8 - rem)) as i128);
        if d > cap {
            return cap as u64;
        }
    }
    debug_assert!(d >= 0, "lo > hi");
    ((d + 1) as u64).min(cap as u64)
}

/// Sizes of the paper's end regions at the (l1, l2) design point:
///
/// * `|L|` — l2-prefixes of Q inside the *first* l1-region of Q;
/// * `|R|` — l2-prefixes of Q inside the *last* l1-region of Q.
///
/// When Q spans a single l1-region both equal |Q_l2|. Saturates at `cap`.
pub fn end_region_counts(lo: &[u8], hi: &[u8], l1: usize, l2: usize, cap: u64) -> (u64, u64) {
    debug_assert!(l1 < l2);
    let q_l2 = prefix_count(lo, hi, l2, cap);
    if lcp_bits(lo, hi) >= l1 {
        // Single l1-region.
        return (q_l2, q_l2);
    }
    // |L| = 2^(l2-l1) - offset(lo) — computed as a running complement so it
    // stays exact under saturation (the direct subtraction of two saturated
    // quantities would collapse to zero); |R| = offset(hi) + 1.
    let mut comp_lo: u64 = 1;
    let mut off_hi: u64 = 0;
    for bit in l1..l2 {
        comp_lo = (comp_lo.saturating_mul(2) - get_bit(lo, bit) as u64).min(cap);
        off_hi = (off_hi.saturating_mul(2) + get_bit(hi, bit) as u64).min(cap);
    }
    (comp_lo.min(q_l2), off_hi.saturating_add(1).min(q_l2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_canonical_preserves_order() {
        let mut vals = [0u64, 1, 255, 256, 1 << 32, u64::MAX - 1, u64::MAX];
        vals.sort_unstable();
        let keys: Vec<[u8; 8]> = vals.iter().map(|&v| u64_key(v)).collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
        for (&v, k) in vals.iter().zip(&keys) {
            assert_eq!(key_u64(k), v);
        }
    }

    #[test]
    fn lcp_bits_reference() {
        assert_eq!(lcp_bits(&u64_key(0), &u64_key(0)), 64);
        assert_eq!(lcp_bits(&u64_key(0), &u64_key(1)), 63);
        assert_eq!(lcp_bits(&u64_key(0), &u64_key(1 << 63)), 0);
        assert_eq!(lcp_bits(&u64_key(0xFF00), &u64_key(0xFF01)), 63);
        assert_eq!(lcp_bits(&u64_key(0xAB00), &u64_key(0xABFF)), 56);
        // Cross-check with a u64 reference for random pairs.
        let mut s = 99u64;
        for _ in 0..500 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = s;
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = s;
            let want = if a == b { 64 } else { (a ^ b).leading_zeros() as usize };
            assert_eq!(lcp_bits(&u64_key(a), &u64_key(b)), want);
        }
    }

    #[test]
    fn mask_and_tail_ops() {
        let mut k = u64_key(0xFFFF_FFFF_FFFF_FFFF);
        mask_tail(&mut k, 12);
        assert_eq!(key_u64(&k), 0xFFF0_0000_0000_0000);
        set_tail_ones(&mut k, 12);
        assert_eq!(key_u64(&k), u64::MAX);
        let mut k = u64_key(0xABCD_0000_0000_0000);
        mask_tail(&mut k, 16);
        assert_eq!(key_u64(&k), 0xABCD_0000_0000_0000);
        set_tail_ones(&mut k, 64);
        assert_eq!(key_u64(&k), 0xABCD_0000_0000_0000);
        mask_tail(&mut k, 0);
        assert_eq!(key_u64(&k), 0);
    }

    #[test]
    fn increment_prefix_counts_regions() {
        // Iterating 4-bit prefixes from 0 should visit all 16 and overflow.
        let mut buf = [0u8; 2];
        let mut seen = vec![buf[0] >> 4];
        loop {
            if increment_prefix(&mut buf, 4) {
                break;
            }
            seen.push(buf[0] >> 4);
        }
        assert_eq!(seen, (0..16).collect::<Vec<u8>>());
    }

    #[test]
    fn increment_prefix_carries_across_bytes() {
        let mut k = u64_key(0x00FF_FFFF_0000_0000);
        assert!(!increment_prefix(&mut k, 32));
        assert_eq!(key_u64(&k), 0x0100_0000_0000_0000);
        let mut k = u64_key(u64::MAX);
        assert!(increment_prefix(&mut k, 64));
        let mut k = [0u8; 8];
        assert!(increment_prefix(&mut k, 0));
    }

    #[test]
    fn advance_prefix_is_repeated_increment() {
        for l in [1usize, 3, 8, 13, 20, 64] {
            for by in [0u64, 1, 2, 255, 256, 70_000] {
                let start = u64_key(0x0123_4567_89AB_CDEF);
                let (mut stepped, mut jumped) = (start, start);
                let mut overflow = false;
                for _ in 0..by {
                    overflow |= increment_prefix(&mut stepped, l);
                }
                assert_eq!(advance_prefix(&mut jumped, l, by), overflow, "l={l} by={by}");
                assert_eq!(jumped, stepped, "l={l} by={by}");
            }
        }
        // Carries ripple to the top and report leaving the key space.
        let mut k = u64_key(u64::MAX << 44);
        assert!(advance_prefix(&mut k, 20, 1));
        let mut k = u64_key(0xFFFF_E000_0000_0000);
        assert!(!advance_prefix(&mut k, 20, 1));
        assert_eq!(key_u64(&k), 0xFFFF_F000_0000_0000);
        let mut wide = [0xFFu8; 12];
        wide[0] = 0;
        assert!(!advance_prefix(&mut wide, 96, 1));
        assert_eq!(wide, [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(!advance_prefix(&mut [0u8; 2], 0, 0));
    }

    #[test]
    fn bit_slice_extracts_values() {
        let k = u64_key(0xABCD_EF01_2345_6789);
        assert_eq!(bit_slice(&k, 0, 16, u64::MAX), 0xABCD);
        assert_eq!(bit_slice(&k, 8, 24, u64::MAX), 0xCDEF);
        assert_eq!(bit_slice(&k, 4, 12, u64::MAX), 0xBC);
        assert_eq!(bit_slice(&k, 0, 64, u64::MAX), 0xABCD_EF01_2345_6789);
        assert_eq!(bit_slice(&k, 60, 64, u64::MAX), 0x9);
        assert_eq!(bit_slice(&k, 30, 30, u64::MAX), 0);
        // Saturation.
        assert_eq!(bit_slice(&k, 0, 64, 1000), 1000);
    }

    #[test]
    fn prefix_count_matches_u64_reference() {
        let cases = [
            (0u64, 0u64, 64usize),
            (0, 1, 64),
            (0, 1, 63),
            (100, 200, 64),
            (100, 200, 57),
            (0x7FFF_FFFF_FFFF_FFFF, 0x8000_0000_0000_0000, 64),
            (0x7FFF_FFFF_FFFF_FFFF, 0x8000_0000_0000_0000, 1),
            (u64::MAX - 5, u64::MAX, 64),
            (0, u64::MAX, 8),
        ];
        for (lo, hi, l) in cases {
            let want = if l == 0 {
                1
            } else {
                let shift = 64 - l;
                (hi >> shift) - (lo >> shift) + 1
            };
            let got = prefix_count(&u64_key(lo), &u64_key(hi), l, u64::MAX);
            assert_eq!(got, want, "lo={lo:#x} hi={hi:#x} l={l}");
        }
    }

    #[test]
    fn prefix_count_saturates() {
        let lo = u64_key(0);
        let hi = u64_key(u64::MAX);
        assert_eq!(prefix_count(&lo, &hi, 64, 1 << 20), 1 << 20);
        assert_eq!(prefix_count(&lo, &hi, 0, 1 << 20), 1);
        // The 0x7FFF..->0x8000.. adjacent pair stays exact despite a 64-bit
        // wide differing window.
        let lo = u64_key(0x7FFF_FFFF_FFFF_FFFF);
        let hi = u64_key(0x8000_0000_0000_0000);
        assert_eq!(prefix_count(&lo, &hi, 64, 1 << 20), 2);
    }

    #[test]
    fn prefix_count_on_wide_keys() {
        // 32-byte keys: the same arithmetic must hold.
        let mut lo = vec![0u8; 32];
        let mut hi = vec![0u8; 32];
        lo[31] = 10;
        hi[31] = 250;
        assert_eq!(prefix_count(&lo, &hi, 256, u64::MAX), 241);
        assert_eq!(prefix_count(&lo, &hi, 248, u64::MAX), 1);
        hi[0] = 1; // astronomically large range
        assert_eq!(prefix_count(&lo, &hi, 256, 1 << 30), 1 << 30);
    }

    #[test]
    fn end_regions_single_region() {
        // Q within one l1-region: both ends equal |Q_l2|.
        let lo = u64_key(0xAB00);
        let hi = u64_key(0xAB0F);
        let (l, r) = end_region_counts(&lo, &hi, 32, 64, u64::MAX);
        assert_eq!(l, 16);
        assert_eq!(r, 16);
    }

    #[test]
    fn end_regions_split() {
        // lo = ...0xFE, hi = next l1-region start + 2: |L| = 2 (0xFE, 0xFF),
        // |R| = 3 (0x00..0x02).
        let lo = u64_key(0x01FE);
        let hi = u64_key(0x0202);
        let (l, r) = end_region_counts(&lo, &hi, 56, 64, u64::MAX);
        assert_eq!(l, 2);
        assert_eq!(r, 3);
    }

    #[test]
    fn end_regions_clamped_by_query() {
        // Wide l1 regions but a narrow query spanning two of them.
        let lo = u64_key(0x0000_0000_FFFF_FFFE);
        let hi = u64_key(0x0000_0001_0000_0001);
        let (l, r) = end_region_counts(&lo, &hi, 32, 64, u64::MAX);
        assert_eq!(l, 2);
        assert_eq!(r, 2);
    }

    #[test]
    fn pad_key_preserves_order_for_strings() {
        let a = pad_key(b"apple", 16);
        let b = pad_key(b"applesauce", 16);
        let c = pad_key(b"banana", 16);
        assert!(a < b && b < c);
        assert_eq!(a.len(), 16);
        // Truncation beyond width.
        let t = pad_key(b"0123456789", 4);
        assert_eq!(&t, b"0123");
    }
}
