//! Sorted key-set statistics: everything Algorithm 1 extracts from the key
//! set.
//!
//! * `|K_l|` — unique key prefixes for every bit length, from successive
//!   LCPs of the sorted keys ("Count Key Prefixes", §4.3, O(|K|));
//! * per-byte-level trie shape (shared-prefix node counts, edge counts,
//!   uniqueness depths) driving `trieMem` ("Calculate Trie Memory", §4.3);
//! * predecessor/successor searches giving each sample query's proximity to
//!   the key set ("Count Query Prefixes", §4.3).

use crate::key::{key_head, lcp_bits, pad_key, prefix_count, u64_key};
use proteus_succinct::cost;
use std::cmp::Ordering;

/// An immutable, sorted, deduplicated key set in canonical form, with the
/// statistics the CPFPR model needs.
#[derive(Debug, Clone)]
pub struct KeySet {
    /// Flat storage: `n` keys of `width` bytes each, ascending.
    data: Vec<u8>,
    width: usize,
    n: usize,
    /// `k_l[l]` = |K_l| for every bit length `0..=width*8`.
    k_l: Vec<u64>,
    /// `u_d[d]` = number of keys whose branch is unique within the first `d`
    /// bytes (uniqueness depth ≤ d), for `0..=width`.
    u_d: Vec<u64>,
}

impl KeySet {
    /// Build from canonical keys (must all be `width` bytes). Sorts and
    /// deduplicates.
    pub fn new(mut keys: Vec<Vec<u8>>, width: usize) -> Self {
        assert!(keys.iter().all(|k| k.len() == width), "keys must be canonical width");
        keys.sort_unstable();
        keys.dedup();
        let n = keys.len();
        let mut data = Vec::with_capacity(n * width);
        for k in &keys {
            data.extend_from_slice(k);
        }
        Self::from_sorted_flat(data, width)
    }

    /// Build from `u64` keys.
    pub fn from_u64(keys: &[u64]) -> Self {
        let mut sorted: Vec<u64> = keys.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut data = Vec::with_capacity(sorted.len() * 8);
        for k in &sorted {
            data.extend_from_slice(&u64_key(*k));
        }
        Self::from_sorted_flat(data, 8)
    }

    /// Build from byte strings, padding to `width` (§7.1 semantics).
    pub fn from_strings<S: AsRef<[u8]>>(keys: &[S], width: usize) -> Self {
        let padded: Vec<Vec<u8>> = keys.iter().map(|k| pad_key(k.as_ref(), width)).collect();
        Self::new(padded, width)
    }

    /// Build from a flat buffer of canonical keys that is already sorted
    /// and deduplicated (zero-copy path for SST construction).
    pub fn from_sorted_canonical(data: Vec<u8>, width: usize) -> Self {
        debug_assert!(width > 0 && data.len().is_multiple_of(width));
        debug_assert!(
            data.chunks_exact(width).zip(data.chunks_exact(width).skip(1)).all(|(a, b)| a < b),
            "keys must be strictly ascending"
        );
        Self::from_sorted_flat(data, width)
    }

    fn from_sorted_flat(data: Vec<u8>, width: usize) -> Self {
        let n = data.len().checked_div(width).unwrap_or(0);
        let bits = width * 8;

        // Histogram of consecutive-pair LCPs -> |K_l| for all l.
        // |K_l| = n - #{pairs with lcp >= l}.
        let mut lcp_hist = vec![0u64; bits + 1];
        // Per-key uniqueness byte depth -> u_d.
        let mut u_hist = vec![0u64; width + 2];
        let key = |i: usize| &data[i * width..(i + 1) * width];
        let mut prev_lcp_bits = 0usize; // lcp with previous key
        for i in 0..n {
            let next_lcp = if i + 1 < n { lcp_bits(key(i), key(i + 1)) } else { 0 };
            if i + 1 < n {
                lcp_hist[next_lcp] += 1;
            }
            let max_lcp_bytes = (prev_lcp_bits.max(next_lcp)) / 8;
            let u = (max_lcp_bytes + 1).min(width);
            u_hist[u] += 1;
            prev_lcp_bits = next_lcp;
        }

        let mut k_l = vec![0u64; bits + 1];
        let mut pairs_ge = 0u64; // #{pairs with lcp >= l}, scanned from l = bits down
        for l in (0..=bits).rev() {
            pairs_ge += lcp_hist[l];
            k_l[l] = (n as u64).saturating_sub(pairs_ge);
        }
        if n > 0 {
            k_l[0] = 1; // the single empty prefix
        }

        let mut u_d = vec![0u64; width + 1];
        let mut acc = 0u64;
        for d in 0..=width {
            acc += u_hist[d];
            u_d[d] = acc;
        }

        KeySet { data, width, n, k_l, u_d }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for a key set with no keys.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Key width in bytes.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Key length in bits (the paper's maximum key length `k`).
    pub fn bits(&self) -> usize {
        self.width * 8
    }

    /// The `i`-th key (ascending).
    pub fn key(&self, i: usize) -> &[u8] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Iterator over keys in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        (0..self.n).map(|i| self.key(i))
    }

    /// |K_l|: the number of unique `l`-bit key prefixes.
    pub fn unique_prefixes(&self, l: usize) -> u64 {
        self.k_l[l.min(self.bits())]
    }

    /// Index of the first key ≥ `probe` (a canonical-width key). Searches on
    /// each key's first 8 bytes, read in place as one integer; only keys
    /// whose head equals the probe's are compared as slices.
    pub fn lower_bound(&self, probe: &[u8]) -> usize {
        let head = key_head(probe);
        let mut lo = 0usize;
        let mut hi = self.n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let key = self.key(mid);
            let below = match key_head(key).cmp(&head) {
                Ordering::Equal => key < probe,
                order => order == Ordering::Less,
            };
            if below {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Does any key fall within the closed range `[lo, hi]`?
    pub fn range_overlaps(&self, lo: &[u8], hi: &[u8]) -> bool {
        let idx = self.lower_bound(lo);
        idx < self.n && self.key(idx) <= hi
    }

    /// Proximity of an *empty* query `[lo, hi]` to the key set, in bits:
    /// `(lcp(pred, lo), lcp(succ, hi))` where pred is the largest key < lo
    /// and succ the smallest key > hi. Returns 0 for missing neighbors.
    /// These two numbers determine every occupancy test in the CPFPR model:
    ///
    /// * the first l-region of Q is occupied iff `max(a, min(b, lcp(lo,hi))) ≥ l`,
    /// * the last  l-region of Q is occupied iff `max(b, min(a, lcp(lo,hi))) ≥ l`,
    /// * `lcp(Q, K) = max(a, b)`.
    pub fn neighbor_lcps(&self, lo: &[u8], hi: &[u8]) -> (usize, usize) {
        debug_assert!(!self.range_overlaps(lo, hi), "query must be empty");
        let idx = self.lower_bound(lo);
        let a = if idx > 0 { lcp_bits(self.key(idx - 1), lo) } else { 0 };
        let b = if idx < self.n { lcp_bits(self.key(idx), hi) } else { 0 };
        (a, b)
    }

    /// Number of `l`-bit prefixes from the smallest key's to the largest
    /// key's, both included, saturating at `cap` — the slots of a span
    /// bitmap over K_l. 0 for an empty set.
    pub fn span_slots(&self, l: usize, cap: u64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        prefix_count(self.key(0), self.key(self.n - 1), l, cap)
    }

    /// Memory (bits) of a uniform-depth Proteus trie of `depth_bytes`,
    /// mirroring the real structure: LOUDS levels with the size-optimal
    /// dense/sparse cutoff — whole words and closing rank counters
    /// included — plus explicit suffix bytes for branches that become
    /// unique early (§4.1/§4.3).
    pub fn trie_mem_bits(&self, depth_bytes: usize) -> u64 {
        if depth_bytes == 0 || self.n == 0 {
            return 0;
        }
        let d = depth_bytes.min(self.width);
        let levels = self.trie_levels(d);
        let (_, louds_bits) = cost::optimal_cutoff(&levels);
        let mut suffix_bytes = 0u64;
        for depth in 1..d {
            let newly_unique = self.u_d[depth] - self.u_d[depth - 1];
            suffix_bytes += newly_unique * (d - depth) as u64;
        }
        let branches = self.trie_branch_count(d);
        louds_bits + cost::byte_suffix_bits(suffix_bytes, branches)
    }

    /// Per-level `(nodes, outgoing edges)` of the uniform-depth trie, for
    /// levels `0..depth_bytes`.
    pub fn trie_levels(&self, depth_bytes: usize) -> Vec<(u64, u64)> {
        let d = depth_bytes.min(self.width);
        let kb = |level: usize| -> u64 {
            if level == 0 {
                if self.n > 0 {
                    1
                } else {
                    0
                }
            } else {
                self.k_l[level * 8]
            }
        };
        (0..d)
            .map(|lvl| {
                let nodes = kb(lvl).saturating_sub(self.u_d[lvl]);
                let edges = kb(lvl + 1).saturating_sub(self.u_d[lvl]);
                (nodes, edges)
            })
            .collect()
    }

    /// Number of distinct branches in the uniform-depth trie — exactly
    /// |K_{8·depth}| since the trie represents the set of depth-byte key
    /// prefixes.
    pub fn trie_branch_count(&self, depth_bytes: usize) -> u64 {
        self.unique_prefixes(depth_bytes.min(self.width) * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::key_u64;

    #[test]
    fn sorted_dedup_construction() {
        let ks = KeySet::from_u64(&[5, 3, 5, 1, 3]);
        assert_eq!(ks.len(), 3);
        let vals: Vec<u64> = ks.iter().map(key_u64).collect();
        assert_eq!(vals, vec![1, 3, 5]);
    }

    #[test]
    fn unique_prefix_counts_match_brute_force() {
        let keys: Vec<u64> = vec![
            0x0000_0000_0000_0000,
            0x0000_0000_0000_0001,
            0x00FF_0000_0000_0000,
            0x0100_0000_0000_0000,
            0xFFFF_FFFF_0000_0000,
            0xFFFF_FFFF_8000_0000,
        ];
        let ks = KeySet::from_u64(&keys);
        for l in 0..=64usize {
            let mut prefixes: Vec<u64> =
                keys.iter().map(|&k| if l == 0 { 0 } else { k >> (64 - l) }).collect();
            prefixes.sort_unstable();
            prefixes.dedup();
            assert_eq!(ks.unique_prefixes(l), prefixes.len() as u64, "l={l}");
        }
    }

    #[test]
    fn uniqueness_depths() {
        // 0x00AB, 0x00CD share byte 0; 0x7F00 is unique from byte 1.
        let keys = vec![vec![0x00, 0xAB], vec![0x00, 0xCD], vec![0x7F, 0x00]];
        let ks = KeySet::new(keys, 2);
        assert_eq!(ks.u_d, vec![0, 1, 3]);
        // Trie shape at depth 2: root (2 edges), one shared node (2 edges).
        assert_eq!(ks.trie_levels(2), vec![(1, 2), (1, 2)]);
        assert_eq!(ks.trie_branch_count(2), 3);
    }

    #[test]
    fn neighbor_lcps_locate_queries() {
        let ks = KeySet::from_u64(&[100, 200, 300]);
        // Empty query strictly between 100 and 200.
        let (a, b) = ks.neighbor_lcps(&u64_key(150), &u64_key(160));
        assert_eq!(a, lcp_bits(&u64_key(100), &u64_key(150)));
        assert_eq!(b, lcp_bits(&u64_key(200), &u64_key(160)));
        // Query below all keys: no predecessor.
        let (a, b) = ks.neighbor_lcps(&u64_key(1), &u64_key(50));
        assert_eq!(a, 0);
        assert_eq!(b, lcp_bits(&u64_key(100), &u64_key(50)));
        // Query above all keys: no successor.
        let (_, b) = ks.neighbor_lcps(&u64_key(400), &u64_key(500));
        assert_eq!(b, 0);
    }

    proptest::proptest! {
        /// The head search agrees with a plain binary search over the key
        /// slices. Four byte values per position make equal keys, equal
        /// heads and probes equal to keys common; width 16 draws its heads
        /// from two URL schemes, so whole runs of keys share one.
        #[test]
        fn lower_bound_matches_the_slice_search(
            seed: u64,
            width_kind in 0usize..3,
            n in 0usize..300,
        ) {
            let width = [4, 8, 16][width_kind];
            let mut s = seed;
            let mut key = || -> Vec<u8> {
                let r = crate::testutil::splitmix(&mut s);
                let scheme: &[u8] = if r & 1 == 0 { b"https://" } else { b"http://a" };
                let tail = (0..width).map(|i| ((r >> (2 * i + 1)) % 4) as u8 * 60);
                if width == 16 {
                    scheme.iter().copied().chain(tail.skip(8)).collect()
                } else {
                    tail.collect()
                }
            };
            let mut sorted: Vec<Vec<u8>> = (0..n).map(|_| key()).collect();
            let ks = KeySet::new(sorted.clone(), width);
            sorted.sort_unstable();
            sorted.dedup();
            for probe in (0..64).map(|_| key()).chain(sorted.iter().take(8).cloned()) {
                let want = sorted.partition_point(|k| *k < probe);
                proptest::prop_assert_eq!(ks.lower_bound(&probe), want, "probe {:?}", probe);
            }
        }
    }

    #[test]
    fn range_overlap_detection() {
        let ks = KeySet::from_u64(&[100, 200]);
        assert!(ks.range_overlaps(&u64_key(100), &u64_key(100)));
        assert!(ks.range_overlaps(&u64_key(50), &u64_key(150)));
        assert!(ks.range_overlaps(&u64_key(150), &u64_key(250)));
        assert!(!ks.range_overlaps(&u64_key(101), &u64_key(199)));
        assert!(!ks.range_overlaps(&u64_key(201), &u64_key(u64::MAX)));
        assert!(!ks.range_overlaps(&u64_key(0), &u64_key(99)));
    }

    #[test]
    fn trie_mem_grows_with_depth() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 997_351).collect();
        let ks = KeySet::from_u64(&keys);
        let mut last = 0;
        for d in 1..=8 {
            let m = ks.trie_mem_bits(d);
            assert!(m >= last, "trie mem must be monotone in depth: d={d}");
            last = m;
        }
        assert_eq!(ks.trie_mem_bits(0), 0);
    }

    #[test]
    fn trie_mem_reasonable_scale() {
        // 10k clustered keys: a 2-byte-deep trie has very few nodes and
        // should cost far less than the full-depth trie.
        let keys: Vec<u64> = (0..10_000u64).map(|i| (i / 64) << 40 | (i % 64)).collect();
        let ks = KeySet::from_u64(&keys);
        assert!(ks.trie_mem_bits(2) < ks.trie_mem_bits(8) / 4);
    }

    #[test]
    fn string_keys_pad_and_sort() {
        let ks = KeySet::from_strings(&[b"pear".as_ref(), b"apple", b"fig"], 8);
        assert_eq!(ks.len(), 3);
        assert_eq!(&ks.key(0)[..5], b"apple");
        assert_eq!(&ks.key(1)[..3], b"fig");
        assert_eq!(ks.key(1)[3], 0);
        assert_eq!(&ks.key(2)[..4], b"pear");
    }

    #[test]
    fn empty_keyset() {
        let ks = KeySet::from_u64(&[]);
        assert!(ks.is_empty());
        assert_eq!(ks.unique_prefixes(10), 0);
        assert_eq!(ks.trie_mem_bits(4), 0);
        assert!(!ks.range_overlaps(&u64_key(0), &u64_key(u64::MAX)));
    }

    #[test]
    fn single_key_set() {
        let ks = KeySet::from_u64(&[42]);
        assert_eq!(ks.unique_prefixes(0), 1);
        assert_eq!(ks.unique_prefixes(64), 1);
        assert_eq!(ks.u_d[1], 1);
        assert_eq!(ks.trie_branch_count(8), 1);
        assert!(ks.trie_mem_bits(8) > 0);
    }
}
