//! The Proteus trie: a uniform-depth FST over key-prefix branches (§4.1).
//!
//! Unlike SuRF, every branch extends to the chosen trie depth; a branch that
//! becomes unique earlier is truncated in the LOUDS structure and its
//! remaining bytes are stored explicitly ("rather than using the LOUDS-DS
//! trie encoding", §4.1). The trie therefore represents exactly the set of
//! depth-byte key prefixes, K_l1.

use crate::codec::{ByteReader, CodecError, WireWrite};
use crate::key::{lcp_bytes, RegionWalk, Run, Walk};
use crate::keyset::KeySet;
use proteus_succinct::{Fst, FstBuilder, ValueStore, Visit};

/// Uniform-depth succinct trie over the `depth_bytes`-byte prefixes of a
/// key set.
#[derive(Debug, Clone)]
pub struct ProteusTrie {
    fst: Fst,
    depth_bytes: usize,
}

impl ProteusTrie {
    /// Build from the sorted key set. `depth_bytes` must be ≥ 1 and at most
    /// the key width.
    pub fn build(keys: &KeySet, depth_bytes: usize) -> Self {
        assert!(depth_bytes >= 1 && depth_bytes <= keys.width());
        let d = depth_bytes;
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
        ProteusTrie { fst, depth_bytes }
    }

    /// Trie depth in bytes.
    pub fn depth_bytes(&self) -> usize {
        self.depth_bytes
    }

    /// Trie depth in bits (`l1`).
    pub fn depth_bits(&self) -> usize {
        self.depth_bytes * 8
    }

    /// Number of distinct branches (= |K_l1|).
    pub fn len(&self) -> usize {
        self.fst.len()
    }

    /// True for a trie with no branches.
    pub fn is_empty(&self) -> bool {
        self.fst.is_empty()
    }

    /// Memory footprint in bits.
    pub fn size_bits(&self) -> u64 {
        self.fst.size_bits()
    }

    /// Serialize depth + the underlying FST.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_u32(self.depth_bytes as u32);
        self.fst.encode_into(out);
    }

    /// Decode a payload written by [`ProteusTrie::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<ProteusTrie, CodecError> {
        let depth_bytes = r.u32()? as usize;
        if depth_bytes == 0 {
            return Err(CodecError::Invalid("trie depth zero"));
        }
        let fst = Fst::decode_from(r)?;
        Ok(ProteusTrie { fst, depth_bytes })
    }

    /// Visit every stored `depth_bytes`-byte key prefix within the closed
    /// window `[lo, hi]` (canonical full-width bounds; only their first
    /// `depth_bytes` bytes matter), in ascending order. The visitor receives
    /// the reconstructed full prefix. Returns `true` if the visitor stopped.
    pub fn visit_leaves<F>(&self, lo: &[u8], hi: &[u8], mut f: F) -> bool
    where
        F: FnMut(&[u8]) -> Visit,
    {
        let d = self.depth_bytes;
        let lo_d = &lo[..d];
        let hi_d = &hi[..d];
        let mut full = Vec::with_capacity(d);
        self.fst.visit_overlapping(lo_d, hi_d, &mut |branch, slot| {
            full.clear();
            full.extend_from_slice(branch);
            full.extend_from_slice(self.fst.values().bytes(slot));
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

    /// The trie as a coarse stage: walk the `l`-bit regions of `walk`'s
    /// query inside each stored leaf's region, stopping at the first leaf
    /// whose walk does not come back [`Walk::Clear`].
    pub fn walk_leaves(
        &self,
        walk: &mut RegionWalk<'_>,
        l: usize,
        mut visit: impl FnMut(&mut Run<'_>) -> Walk,
    ) -> Walk {
        let mut end = Walk::Clear;
        self.visit_leaves(walk.lo, walk.hi, |leaf| {
            end = walk.walk(leaf, self.depth_bits(), l, &mut visit);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::u64_key;

    fn collect(trie: &ProteusTrie, lo: u64, hi: u64) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        trie.visit_leaves(&u64_key(lo), &u64_key(hi), |p| {
            out.push(p.to_vec());
            Visit::Continue
        });
        out
    }

    fn reference(keys: &[u64], d: usize, lo: u64, hi: u64) -> Vec<Vec<u8>> {
        let mut prefixes: Vec<Vec<u8>> = keys.iter().map(|&k| u64_key(k)[..d].to_vec()).collect();
        prefixes.sort();
        prefixes.dedup();
        let lo_d = u64_key(lo)[..d].to_vec();
        let hi_d = u64_key(hi)[..d].to_vec();
        prefixes.into_iter().filter(|p| *p >= lo_d && *p <= hi_d).collect()
    }

    #[test]
    fn trie_represents_exactly_k_l1() {
        let keys: Vec<u64> =
            vec![0x1111_0000_0000_0000, 0x1111_2222_0000_0000, 0x9999_0000_0000_0001, 42];
        let ks = KeySet::from_u64(&keys);
        for d in 1..=8usize {
            let trie = ProteusTrie::build(&ks, d);
            assert_eq!(trie.len() as u64, ks.unique_prefixes(d * 8), "depth {d}");
            let got = collect(&trie, 0, u64::MAX);
            assert_eq!(got, reference(&keys, d, 0, u64::MAX), "depth {d}");
        }
    }

    #[test]
    fn window_queries_match_reference() {
        let mut s = 77u64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let keys: Vec<u64> = (0..500).map(|_| rng()).collect();
        let ks = KeySet::from_u64(&keys);
        for d in [2usize, 4, 8] {
            let trie = ProteusTrie::build(&ks, d);
            for _ in 0..50 {
                let a = rng();
                let b = rng();
                let (lo, hi) = (a.min(b), a.max(b));
                assert_eq!(collect(&trie, lo, hi), reference(&keys, d, lo, hi), "d={d}");
            }
        }
    }

    #[test]
    fn overlaps_answers_emptiness() {
        let keys: Vec<u64> = vec![100 << 32, 200 << 32];
        let ks = KeySet::from_u64(&keys);
        let trie = ProteusTrie::build(&ks, 4);
        assert!(trie.overlaps(&u64_key(100 << 32), &u64_key(100 << 32)));
        assert!(trie.overlaps(&u64_key(0), &u64_key(u64::MAX)));
        // At 4-byte depth, keys live in regions 100 and 200 (of the top 32
        // bits); region 150 is empty.
        assert!(!trie.overlaps(&u64_key(150 << 32), &u64_key((151 << 32) - 1)));
        // Sub-region granularity is invisible to the trie: anything inside
        // an occupied 32-bit region reports overlap.
        assert!(trie.overlaps(&u64_key(100 << 32 | 5), &u64_key(100 << 32 | 9)));
    }

    #[test]
    fn suffix_reconstruction_is_exact() {
        // A single key forces maximal truncation: branch 1 byte, suffix d-1.
        let ks = KeySet::from_u64(&[0xDEAD_BEEF_CAFE_F00D]);
        let trie = ProteusTrie::build(&ks, 8);
        let got = collect(&trie, 0, u64::MAX);
        assert_eq!(got, vec![u64_key(0xDEAD_BEEF_CAFE_F00D).to_vec()]);
        // Precise window checks around the reconstructed key.
        assert!(trie.overlaps(&u64_key(0xDEAD_BEEF_CAFE_F00D), &u64_key(u64::MAX)));
        assert!(!trie.overlaps(&u64_key(0xDEAD_BEEF_CAFE_F00E), &u64_key(u64::MAX)));
        assert!(!trie.overlaps(&u64_key(0), &u64_key(0xDEAD_BEEF_CAFE_F00C)));
    }

    #[test]
    fn size_tracks_estimate() {
        let mut s = 3u64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let keys: Vec<u64> = (0..20_000).map(|_| rng()).collect();
        let ks = KeySet::from_u64(&keys);
        for d in [2usize, 3, 5, 8] {
            let trie = ProteusTrie::build(&ks, d);
            let actual = trie.size_bits() as f64;
            let est = ks.trie_mem_bits(d) as f64;
            let ratio = actual / est;
            assert!(
                (0.5..2.0).contains(&ratio),
                "depth {d}: actual {actual} vs estimate {est} (ratio {ratio:.2})"
            );
        }
    }
}
