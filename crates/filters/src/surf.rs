//! SuRF — the Succinct Range Filter (Zhang et al., SIGMOD 2018), the
//! state-of-the-art deterministic baseline of the Proteus paper (§2.2).
//!
//! SuRF prunes each key's trie branch to the shortest prefix that uniquely
//! identifies it, encoded as a LOUDS-DS fast succinct trie. Optional
//! per-key suffix bits refine the boundary comparisons:
//!
//! * **SuRF-Base** — no suffixes;
//! * **SuRF-Hash(h)** — `h` bits of a hash of the full key; helps point
//!   queries only ("these do not provide any additional benefit for range
//!   queries", §2.2);
//! * **SuRF-Real(r)** — the `r` key bits following the pruned prefix;
//!   refines both point and range queries.
//!
//! Keys are canonical fixed-width byte strings; NUL padding plays the role
//! of SuRF's `$` terminator for keys that are prefixes of other keys.

use proteus_amq::hash::{HashFamily, PrefixHasher};
use proteus_core::codec::{ByteReader, CodecError, FilterKind, WireWrite};
use proteus_core::key::{bit_slice, lcp_bytes};
use proteus_core::{KeySet, RangeFilter};
use proteus_succinct::{Fst, FstBuilder, ValueStore, Visit};

/// Suffix configuration (SuRF-Base / SuRF-Hash / SuRF-Real).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurfSuffix {
    /// No suffix bits: the trie alone answers queries.
    Base,
    /// `n` hash bits per key (point-query false positives only).
    Hash(u32),
    /// `n` real key bits past the trie depth (helps range queries too).
    Real(u32),
}

impl SurfSuffix {
    fn bits(self) -> u32 {
        match self {
            SurfSuffix::Base => 0,
            SurfSuffix::Hash(b) | SurfSuffix::Real(b) => b,
        }
    }
}

/// The SuRF baseline filter.
#[derive(Debug, Clone)]
pub struct Surf {
    fst: Fst,
    suffix: SurfSuffix,
    hasher: PrefixHasher,
    width: usize,
}

impl Surf {
    /// Build over a key set with the given suffix mode.
    pub fn build(keys: &KeySet, suffix: SurfSuffix) -> Self {
        let n = keys.len();
        let hasher = PrefixHasher::new(HashFamily::Murmur3, 0x5u32);
        // Branch per key: shortest unique byte prefix.
        let mut branches: Vec<&[u8]> = Vec::with_capacity(n);
        let mut branch_lens: Vec<u32> = Vec::with_capacity(n);
        for i in 0..n {
            let key = keys.key(i);
            let prev_lcp = if i > 0 { lcp_bytes(keys.key(i - 1), key) } else { 0 };
            let next_lcp = if i + 1 < n { lcp_bytes(key, keys.key(i + 1)) } else { 0 };
            let ub = (prev_lcp.max(next_lcp) + 1).min(keys.width());
            branches.push(&key[..ub]);
            branch_lens.push(ub as u32);
        }
        let (mut fst, slot_to_idx) = FstBuilder::new().build(&branches);
        let sbits = suffix.bits();
        if sbits > 0 {
            let values: Vec<u64> = slot_to_idx
                .iter()
                .map(|&i| {
                    let key = keys.key(i as usize);
                    match suffix {
                        SurfSuffix::Hash(_) => hasher.hash_bytes(key).h1 & mask_low(sbits),
                        SurfSuffix::Real(_) => {
                            real_suffix(key, branch_lens[i as usize] as usize * 8, sbits)
                        }
                        SurfSuffix::Base => unreachable!(),
                    }
                })
                .collect();
            fst.set_values(ValueStore::from_fixed_bits(&values, sbits));
        }
        Surf { fst, suffix, hasher, width: keys.width() }
    }

    /// Trie + suffix memory, in bits.
    pub fn size_bits(&self) -> u64 {
        self.fst.size_bits()
    }

    /// Serialize: width, suffix mode, hasher, then the trie (covers all
    /// three suffix modes — the ValueStore carries the suffix bits).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_u32(self.width as u32);
        let (tag, bits) = match self.suffix {
            SurfSuffix::Base => (0u8, 0u32),
            SurfSuffix::Hash(b) => (1, b),
            SurfSuffix::Real(b) => (2, b),
        };
        out.put_u8(tag);
        out.put_u32(bits);
        self.hasher.encode_into(out);
        self.fst.encode_into(out);
    }

    /// Decode a filter previously written by `encode_into`.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Surf, CodecError> {
        let width = r.u32()? as usize;
        if width == 0 {
            return Err(CodecError::Invalid("surf width zero"));
        }
        let tag = r.u8()?;
        let bits = r.u32()?;
        let suffix = match tag {
            0 => SurfSuffix::Base,
            1 => SurfSuffix::Hash(bits),
            2 => SurfSuffix::Real(bits),
            tag => return Err(CodecError::UnknownTag { what: "surf suffix", tag }),
        };
        if suffix != SurfSuffix::Base && !(1..=64).contains(&bits) {
            return Err(CodecError::Invalid("surf suffix bits"));
        }
        let hasher = PrefixHasher::decode_from(r)?;
        let fst = Fst::decode_from(r)?;
        Ok(Surf { fst, suffix, hasher, width })
    }

    /// Closed-range emptiness query over canonical bounds.
    pub fn query(&self, lo: &[u8], hi: &[u8]) -> bool {
        debug_assert_eq!(lo.len(), self.width);
        debug_assert!(lo <= hi);
        let point = lo == hi;
        self.fst.visit_overlapping(lo, hi, &mut |branch, slot| {
            if self.candidate_matches(branch, slot, lo, hi, point) {
                Visit::Stop
            } else {
                Visit::Continue
            }
        })
    }

    /// Convenience u64 query.
    pub fn query_u64(&self, lo: u64, hi: u64) -> bool {
        self.query(&proteus_core::key::u64_key(lo), &proteus_core::key::u64_key(hi))
    }

    /// Decide whether a candidate branch (possibly a proper prefix of a
    /// bound) survives suffix refinement.
    fn candidate_matches(
        &self,
        branch: &[u8],
        slot: usize,
        lo: &[u8],
        hi: &[u8],
        point: bool,
    ) -> bool {
        let blen = branch.len();
        let prefix_of_lo = blen < self.width && branch == &lo[..blen.min(lo.len())];
        let prefix_of_hi = blen < self.width && branch == &hi[..blen.min(hi.len())];
        match self.suffix {
            SurfSuffix::Base => true,
            SurfSuffix::Hash(bits) => {
                if point {
                    // Point query: the represented key equals `lo` only if
                    // the full-key hashes agree.
                    let want = self.hasher.hash_bytes(lo).h1 & mask_low(bits);
                    self.fst.values().fixed(slot) == want
                } else {
                    true // hash bits cannot refine range boundaries
                }
            }
            SurfSuffix::Real(bits) => {
                if !prefix_of_lo && !prefix_of_hi {
                    return true; // strictly inside the range
                }
                let stored = self.fst.values().fixed(slot);
                if prefix_of_lo {
                    // Represented key k extends `branch`; k >= lo requires
                    // its next `bits` key bits to be >= lo's.
                    let lo_bits = real_suffix(lo, blen * 8, bits);
                    if stored < lo_bits {
                        return false;
                    }
                }
                if prefix_of_hi {
                    let hi_bits = real_suffix(hi, blen * 8, bits);
                    if stored > hi_bits {
                        return false;
                    }
                }
                true
            }
        }
    }
}

#[inline]
fn mask_low(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// The `bits` key bits starting at `from` (zero-extended past the key end).
fn real_suffix(key: &[u8], from: usize, bits: u32) -> u64 {
    let total = key.len() * 8;
    if from >= total {
        return 0;
    }
    let avail = (total - from).min(bits as usize);
    let v = bit_slice(key, from, from + avail, u64::MAX);
    // Left-align within `bits` so lexicographic comparisons are value
    // comparisons even when truncated by the key end.
    v << (bits as usize - avail)
}

impl RangeFilter for Surf {
    fn may_contain_range(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.query(lo, hi)
    }
    fn size_bits(&self) -> u64 {
        self.size_bits()
    }
    fn name(&self) -> String {
        match self.suffix {
            SurfSuffix::Base => "SuRF-Base".to_string(),
            SurfSuffix::Hash(b) => format!("SuRF-Hash({b})"),
            SurfSuffix::Real(b) => format!("SuRF-Real({b})"),
        }
    }
    fn encode_payload(&self) -> (FilterKind, Vec<u8>) {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        (FilterKind::Surf, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_core::key::u64_key;

    fn splitmix(s: &mut u64) -> u64 {
        *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn all_modes() -> Vec<SurfSuffix> {
        vec![
            SurfSuffix::Base,
            SurfSuffix::Hash(4),
            SurfSuffix::Hash(8),
            SurfSuffix::Real(4),
            SurfSuffix::Real(8),
        ]
    }

    #[test]
    fn no_false_negatives_points_and_ranges() {
        let mut s = 1u64;
        let keys: Vec<u64> = (0..2000).map(|_| splitmix(&mut s)).collect();
        let ks = KeySet::from_u64(&keys);
        for mode in all_modes() {
            let f = Surf::build(&ks, mode);
            for &k in keys.iter().step_by(29) {
                assert!(f.query_u64(k, k), "{mode:?} point {k:#x}");
                assert!(
                    f.query_u64(k.saturating_sub(100), k.saturating_add(100)),
                    "{mode:?} range around {k:#x}"
                );
                assert!(f.query_u64(0, u64::MAX), "{mode:?}");
            }
        }
    }

    #[test]
    fn hash_suffixes_cut_point_fprs() {
        let mut s = 2u64;
        let keys: Vec<u64> = (0..5000).map(|_| splitmix(&mut s)).collect();
        let ks = KeySet::from_u64(&keys);
        let base = Surf::build(&ks, SurfSuffix::Base);
        let hash = Surf::build(&ks, SurfSuffix::Hash(8));
        let mut fp_base = 0;
        let mut fp_hash = 0;
        let trials = 5000;
        for _ in 0..trials {
            let q = splitmix(&mut s);
            if keys.contains(&q) {
                continue;
            }
            fp_base += base.query_u64(q, q) as u32;
            fp_hash += hash.query_u64(q, q) as u32;
        }
        assert!(
            fp_hash * 4 < fp_base.max(4),
            "hash suffix should slash point FPR: base {fp_base}, hash {fp_hash}"
        );
    }

    #[test]
    fn real_suffixes_cut_range_fprs_near_keys() {
        // Clustered keys so pruned prefixes are long and queries nearby.
        let mut s = 3u64;
        let keys: Vec<u64> =
            (0..3000).map(|_| (0xAAu64 << 56) | (splitmix(&mut s) >> 20)).collect();
        let ks = KeySet::from_u64(&keys);
        let base = Surf::build(&ks, SurfSuffix::Base);
        let real = Surf::build(&ks, SurfSuffix::Real(8));
        let mut fp_base = 0;
        let mut fp_real = 0;
        let mut trials = 0;
        while trials < 3000 {
            let k = keys[(splitmix(&mut s) as usize) % keys.len()];
            let lo = k.wrapping_add(1 + splitmix(&mut s) % 64);
            let hi = lo + 4;
            if ks.range_overlaps(&u64_key(lo), &u64_key(hi)) {
                continue;
            }
            trials += 1;
            fp_base += base.query_u64(lo, hi) as u32;
            fp_real += real.query_u64(lo, hi) as u32;
        }
        assert!(
            fp_real < fp_base,
            "real suffixes should help correlated ranges: base {fp_base}, real {fp_real}"
        );
    }

    #[test]
    fn string_keys_with_prefix_relationships() {
        let width = 12;
        let raw: Vec<&[u8]> = vec![b"app", b"apple", b"applesauce", b"banana", b"band"];
        let ks = KeySet::from_strings(&raw, width);
        for mode in all_modes() {
            let f = Surf::build(&ks, mode);
            for k in &raw {
                let ck = proteus_core::key::pad_key(k, width);
                assert!(f.query(&ck, &ck), "{mode:?} {}", String::from_utf8_lossy(k));
            }
            // A range that straddles "banana".."band".
            let lo = proteus_core::key::pad_key(b"banaa", width);
            let hi = proteus_core::key::pad_key(b"bane", width);
            assert!(f.query(&lo, &hi), "{mode:?}");
        }
    }

    #[test]
    fn memory_grows_with_suffix_bits() {
        let mut s = 6u64;
        let keys: Vec<u64> = (0..4000).map(|_| splitmix(&mut s)).collect();
        let ks = KeySet::from_u64(&keys);
        let base = Surf::build(&ks, SurfSuffix::Base).size_bits();
        let real4 = Surf::build(&ks, SurfSuffix::Real(4)).size_bits();
        let real8 = Surf::build(&ks, SurfSuffix::Real(8)).size_bits();
        assert!(base < real4 && real4 < real8);
        // BPK sanity: SuRF-Base on uniform 64-bit keys lands near 10-14 BPK.
        let bpk = base as f64 / keys.len() as f64;
        assert!((6.0..20.0).contains(&bpk), "SuRF-Base at {bpk:.1} BPK");
    }

    #[test]
    fn far_queries_are_negative() {
        // Keys clustered high; queries low: unique prefixes resolve quickly.
        let keys: Vec<u64> = (0..1000).map(|i| (0xFFu64 << 56) | i).collect();
        let ks = KeySet::from_u64(&keys);
        let f = Surf::build(&ks, SurfSuffix::Base);
        let mut fps = 0;
        for i in 0..1000u64 {
            fps += f.query_u64(i << 30, (i << 30) + 1000) as u32;
        }
        assert_eq!(fps, 0, "distant queries must all resolve in the trie");
    }
}
