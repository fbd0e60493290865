//! The Proteus self-designing range filter (§4).
//!
//! Proteus combines a deterministic coarse stage — the exact set of `l1`-bit
//! key prefixes, as a uniform-depth succinct trie or a span bitmap
//! ([`crate::trie`]) — with a prefix Bloom filter (prefix length `l2 > l1`
//! bits). Construction feeds a sample of empty queries through the CPFPR
//! model (Algorithm 1) to choose `(l1, l2)`; either component may be dropped
//! entirely, so the filter can be purely deterministic or purely
//! probabilistic as the workload demands.

use crate::codec::{ByteReader, CodecError, FilterKind, WireWrite};
use crate::key::{pad_key, u64_key, ProbeBudget, RegionWalk, Run, Walk};
use crate::keyset::KeySet;
use crate::model::proteus::{ProteusDesign, ProteusModel, ProteusModelOptions};
use crate::prefix_bf::PrefixBloom;
use crate::sample::SampleQueries;
use crate::trie::{coarse_stage, CoarseEncoding, ProteusTrie};
use crate::RangeFilter;
use proteus_amq::hash::HashFamily;

/// Default per-query Bloom probe cap. A query needing more probes than this
/// has a modeled FPR `1 - (1 - p)^n` of ≈ 1 at any point FPR `p` a budget
/// yields (at `p = 0.001`, `1 - e^-65`), so answering "maybe" without
/// probing is indistinguishable from probing.
pub const DEFAULT_PROBE_CAP: u64 = 65_536;

/// Construction options for [`Proteus`].
#[derive(Debug, Clone)]
pub struct ProteusOptions {
    /// Hash family for the prefix Bloom filter (Murmur3 for integers,
    /// CLHash for strings, per §4.3/§7.1).
    pub hash_family: HashFamily,
    /// Per-query probe budget.
    pub probe_cap: u64,
    /// CPFPR search options (the coarse l2 grid).
    pub model: ProteusModelOptions,
    /// Hash seed (fixed for reproducibility).
    pub seed: u32,
}

impl Default for ProteusOptions {
    fn default() -> Self {
        ProteusOptions {
            hash_family: HashFamily::Murmur3,
            probe_cap: DEFAULT_PROBE_CAP,
            model: ProteusModelOptions::default(),
            seed: 0x1CEB_00DA,
        }
    }
}

/// The Proteus range filter.
#[derive(Debug, Clone)]
pub struct Proteus {
    pub(crate) trie: Option<ProteusTrie>,
    pub(crate) bloom: Option<PrefixBloom>,
    pub(crate) design: ProteusDesign,
    pub(crate) width: usize,
    pub(crate) probe_cap: u64,
}

impl Proteus {
    /// Self-design and build: run the CPFPR model over `samples` and
    /// instantiate the best design within `m_bits` of memory (Algorithm 1
    /// followed by construction). Samples must be empty queries; use
    /// [`SampleQueries::retain_empty`] first if unsure.
    pub fn train(
        keys: &KeySet,
        samples: &SampleQueries,
        m_bits: u64,
        opts: &ProteusOptions,
    ) -> Self {
        let model = ProteusModel::build(keys, samples, m_bits, &opts.model);
        let design = model.best_design(keys, m_bits);
        Self::build_with_design(keys, design, m_bits, opts)
    }

    /// Build a fixed design (used by the model-validation experiments that
    /// sweep the whole design space, Fig. 4c).
    pub fn build_with_design(
        keys: &KeySet,
        design: ProteusDesign,
        m_bits: u64,
        opts: &ProteusOptions,
    ) -> Self {
        let l2 = design.bloom_prefix_len;
        let trie = coarse_stage(keys, design.trie_depth_bits);
        let trie_bits = trie.as_ref().map_or(0, |t| t.size_bits());
        let bloom = (l2 > 0 && !keys.is_empty()).then(|| {
            let bf_bits = m_bits.saturating_sub(trie_bits);
            PrefixBloom::build(keys, l2, bf_bits, opts.hash_family, opts.seed)
        });
        Proteus { trie, bloom, design, width: keys.width(), probe_cap: opts.probe_cap }
    }

    /// The design the model selected.
    pub fn design(&self) -> ProteusDesign {
        self.design
    }

    /// Canonical key width in bytes.
    pub fn width(&self) -> usize {
        self.width
    }

    /// How the coarse stage stores its `l1`-bit prefixes, if there is one.
    pub fn coarse_encoding(&self) -> Option<CoarseEncoding> {
        self.trie.as_ref().map(ProteusTrie::encoding)
    }

    /// Closed-range emptiness query over canonical keys.
    pub fn query(&self, lo: &[u8], hi: &[u8]) -> bool {
        debug_assert_eq!(lo.len(), self.width);
        debug_assert_eq!(hi.len(), self.width);
        debug_assert!(lo <= hi);
        match (&self.trie, &self.bloom) {
            (None, None) => true, // no structure: must answer positive
            (Some(trie), None) => trie.overlaps(lo, hi),
            (trie, Some(bloom)) => {
                let budget = ProbeBudget::new(self.probe_cap);
                let mut walk = RegionWalk::new(lo, hi, &budget);
                let l2 = bloom.prefix_len();
                // Running out of probes is the safe positive too.
                walk_fine(trie.as_ref(), &mut walk, l2, |run| bloom.probe_run(run)) != Walk::Clear
            }
        }
    }

    /// Convenience: query over `u64` bounds (closed interval).
    pub fn query_u64(&self, lo: u64, hi: u64) -> bool {
        self.query(&u64_key(lo), &u64_key(hi))
    }

    /// Convenience: query over raw (unpadded) string bounds.
    pub fn query_str(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.query(&pad_key(lo, self.width), &pad_key(hi, self.width))
    }

    /// Total memory of trie + Bloom filter in bits.
    pub fn size_bits(&self) -> u64 {
        self.trie.as_ref().map_or(0, |t| t.size_bits())
            + self.bloom.as_ref().map_or(0, |b| b.size_bits())
    }

    /// Serialize the built filter (structure + chosen design; no training
    /// state, so a decoded filter answers without re-running the model).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_header(out, self.width, self.probe_cap);
        out.put_u64(self.design.trie_depth_bits as u64);
        out.put_u64(self.design.bloom_prefix_len as u64);
        out.put_f64(self.design.expected_fpr);
        out.put_u64(self.design.trie_mem_bits);
        out.put_u8(
            match self.coarse_encoding() {
                None => 0,
                Some(CoarseEncoding::Fst) => FLAG_FST,
                Some(CoarseEncoding::SpanBitmap) => FLAG_SPAN,
            } | if self.bloom.is_some() { FLAG_BLOOM } else { 0 },
        );
        if let Some(trie) = &self.trie {
            trie.encode_into(out);
        }
        if let Some(bloom) = &self.bloom {
            bloom.encode_into(out);
        }
    }

    /// Decode a payload written by [`Proteus::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Proteus, CodecError> {
        let (width, probe_cap) = read_header(r)?;
        let design = ProteusDesign {
            trie_depth_bits: r.u64()? as usize,
            bloom_prefix_len: r.u64()? as usize,
            expected_fpr: r.f64()?,
            trie_mem_bits: r.u64()?,
        };
        let flags = r.u8()?;
        let encoding = match flags & (FLAG_FST | FLAG_SPAN) {
            0 => None,
            FLAG_FST => Some(CoarseEncoding::Fst),
            FLAG_SPAN => Some(CoarseEncoding::SpanBitmap),
            _ => return Err(CodecError::Invalid("proteus coarse stage in two encodings")),
        };
        if flags & !(FLAG_FST | FLAG_BLOOM | FLAG_SPAN) != 0 {
            return Err(CodecError::Invalid("proteus component flags"));
        }
        let trie = encoding.map(|e| ProteusTrie::decode_from(r, e, width)).transpose()?;
        // The walk clamps to the stage's own depth, the model and the Bloom
        // prefix were chosen for the design's: they must be one number.
        if trie.as_ref().is_some_and(|t| t.depth_bits() != design.trie_depth_bits) {
            return Err(CodecError::Invalid("proteus coarse depth disagrees with design"));
        }
        let bloom = (flags & FLAG_BLOOM != 0)
            .then(|| PrefixBloom::decode_for(r, width, design.bloom_prefix_len))
            .transpose()?;
        Ok(Proteus { trie, bloom, design, width, probe_cap })
    }

    /// Decode a payload under [`FilterKind::OnePbf`], the tag 1PBF was
    /// written under before it became a trie-less Proteus: the header, the
    /// design's prefix length and FPR, then the Bloom filter. Nothing writes
    /// the tag any more; this keeps such filter blocks readable.
    pub fn decode_one_pbf_from(r: &mut ByteReader<'_>) -> Result<Proteus, CodecError> {
        let (width, probe_cap) = read_header(r)?;
        let design = ProteusDesign::bloom_only(r.u64()? as usize, r.f64()?);
        let bloom = PrefixBloom::decode_for(r, width, design.bloom_prefix_len)?;
        Ok(Proteus { trie: None, bloom: Some(bloom), design, width, probe_cap })
    }
}

/// The component-flags byte of the Proteus payload: which of the coarse
/// stage's two encodings follows (at most one), then whether a Bloom filter
/// does. `FLAG_SPAN` is the one bit added since format version 2 was cut;
/// payloads without it decode as they always did.
const FLAG_FST: u8 = 1;
const FLAG_BLOOM: u8 = 1 << 1;
const FLAG_SPAN: u8 = 1 << 2;

/// Write the `(key width, probe cap)` pair every Protean payload opens with.
pub(crate) fn put_header(out: &mut Vec<u8>, width: usize, probe_cap: u64) {
    out.put_u32(width as u32);
    out.put_u64(probe_cap);
}

/// Read the pair [`put_header`] wrote; a zero key width is never valid.
pub(crate) fn read_header(r: &mut ByteReader<'_>) -> Result<(usize, u64), CodecError> {
    let width = r.u32()? as usize;
    if width == 0 {
        return Err(CodecError::Invalid("filter key width zero"));
    }
    Ok((width, r.u64()?))
}

/// The fine stage shared by every trie-or-nothing coarse stage: walk the
/// `l2`-bit regions of the query — all of them without a coarse stage, only
/// those inside stored leaves with one.
pub(crate) fn walk_fine(
    trie: Option<&ProteusTrie>,
    walk: &mut RegionWalk<'_>,
    l2: usize,
    visit: impl FnMut(&mut Run<'_>) -> Walk,
) -> Walk {
    match trie {
        None => walk.walk(&[], 0, l2, visit),
        Some(trie) => trie.walk_leaves(walk, l2, visit),
    }
}

impl RangeFilter for Proteus {
    fn may_contain_range(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.query(lo, hi)
    }
    fn size_bits(&self) -> u64 {
        self.size_bits()
    }
    fn name(&self) -> String {
        let (l1, l2) = (self.design.trie_depth_bits, self.design.bloom_prefix_len);
        match self.coarse_encoding() {
            Some(encoding) => format!("Proteus(l1={l1} {encoding}, l2={l2})"),
            None => format!("Proteus(l1={l1}, l2={l2})"),
        }
    }
    fn encode_payload(&self) -> (FilterKind, Vec<u8>) {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        (FilterKind::Proteus, out)
    }
    fn expected_fpr(&self) -> Option<f64> {
        Some(self.design.expected_fpr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{empty_ranges, splitmix, uniform_setup};

    fn uniform_keys(n: usize, seed: u64) -> Vec<u64> {
        uniform_setup(n, 0, 1, seed).0
    }

    fn empty_queries(ks: &KeySet, n: usize, rmax: u64, mut seed: u64) -> SampleQueries {
        empty_ranges(ks, n, rmax, &mut seed)
    }

    /// 1PBF: the trie-less design the Eq. 1 model picks.
    fn one_pbf(ks: &KeySet, samples: &SampleQueries, m: u64) -> Proteus {
        let design = ProteusModel::bloom_only(ks, samples).best_design(ks, m);
        Proteus::build_with_design(ks, design, m, &ProteusOptions::default())
    }

    #[test]
    fn depth_zero_has_no_false_negatives() {
        let (keys, ks, samples) = uniform_setup(2000, 400, 1 << 10, 11);
        let f = one_pbf(&ks, &samples, 2000 * 12);
        assert_eq!(f.design().trie_depth_bits, 0);
        for &k in keys.iter().step_by(13) {
            assert!(f.query_u64(k, k));
            assert!(f.query_u64(k.saturating_sub(5), k.saturating_add(5)));
        }
    }

    #[test]
    fn depth_zero_prefix_respects_range_size() {
        let (_, ks, samples) = uniform_setup(3000, 400, 1 << 16, 11);
        let f = one_pbf(&ks, &samples, 3000 * 12);
        // For RMAX = 2^16 the optimum sits at or below 64 - 16 = 48 bits
        // (Fig. 4a): longer prefixes multiply probes per query.
        assert!(f.design().bloom_prefix_len <= 49, "{:?}", f.design());
    }

    #[test]
    fn depth_zero_observed_fpr_near_model() {
        let (_, ks, samples) = uniform_setup(3000, 400, 1 << 8, 11);
        let f = one_pbf(&ks, &samples, 3000 * 14);
        let mut s = 999u64;
        let mut fps = 0usize;
        let trials = 3000usize;
        let mut done = 0usize;
        while done < trials {
            let lo = splitmix(&mut s) % (u64::MAX - (1 << 8) - 2);
            let hi = lo + 2 + splitmix(&mut s) % (1 << 8);
            if ks.range_overlaps(&u64_key(lo), &u64_key(hi)) {
                continue;
            }
            done += 1;
            if f.query_u64(lo, hi) {
                fps += 1;
            }
        }
        let observed = fps as f64 / trials as f64;
        let predicted = f.design().expected_fpr;
        assert!(
            (observed - predicted).abs() < 0.05 + predicted,
            "observed {observed} predicted {predicted}"
        );
    }

    #[test]
    fn no_false_negatives_across_designs() {
        let raw = uniform_keys(2000, 1);
        let ks = KeySet::from_u64(&raw);
        let m = 2000 * 12;
        let opts = ProteusOptions::default();
        let designs =
            [(0usize, 64usize), (0, 40), (16, 48), (16, 0), (24, 64), (11, 48), (13, 0), (14, 64)];
        for (l1, l2) in designs {
            if l1 > 0 && ProteusTrie::cheapest(&ks, l1).is_none_or(|c| c.1 > m) {
                continue;
            }
            let design = ProteusDesign {
                trie_depth_bits: l1,
                bloom_prefix_len: l2,
                expected_fpr: 0.0,
                trie_mem_bits: 0,
            };
            let f = Proteus::build_with_design(&ks, design, m, &opts);
            for &k in raw.iter().step_by(7) {
                assert!(f.query_u64(k, k), "point fn for {k} at ({l1},{l2})");
                assert!(
                    f.query_u64(k.saturating_sub(10), k.saturating_add(10)),
                    "range fn for {k} at ({l1},{l2})"
                );
            }
        }
    }

    #[test]
    fn trained_filter_beats_mistuned_designs() {
        let raw = uniform_keys(3000, 2);
        let ks = KeySet::from_u64(&raw);
        let m = 3000 * 12;
        let samples = empty_queries(&ks, 2000, 1 << 14, 3);
        let f = Proteus::train(&ks, &samples, m, &ProteusOptions::default());

        let eval = |filter: &Proteus| -> f64 {
            let queries = empty_queries(&ks, 2000, 1 << 14, 99);
            let fps = queries.iter().filter(|(lo, hi)| filter.may_contain_range(lo, hi)).count();
            fps as f64 / queries.len() as f64
        };
        let trained_fpr = eval(&f);
        // A deliberately bad design for large ranges: full-length prefixes.
        let bad = Proteus::build_with_design(
            &ks,
            ProteusDesign {
                trie_depth_bits: 0,
                bloom_prefix_len: 64,
                expected_fpr: 0.0,
                trie_mem_bits: 0,
            },
            m,
            &ProteusOptions { probe_cap: 1 << 16, ..Default::default() },
        );
        let bad_fpr = eval(&bad);
        assert!(
            trained_fpr < bad_fpr * 0.8 || trained_fpr < 0.01,
            "trained {trained_fpr} vs bad {bad_fpr}"
        );
        // Model prediction should be in the neighborhood of reality.
        let predicted = f.design().expected_fpr;
        assert!(
            (trained_fpr - predicted).abs() < 0.1,
            "predicted {predicted} observed {trained_fpr}"
        );
    }

    #[test]
    fn memory_budget_respected() {
        let raw = uniform_keys(5000, 4);
        let ks = KeySet::from_u64(&raw);
        let samples = empty_queries(&ks, 500, 1 << 10, 5);
        for bpk in [8u64, 12, 18] {
            let m = 5000 * bpk;
            let f = Proteus::train(&ks, &samples, m, &ProteusOptions::default());
            // Allow a few percent of slack for rank-directory rounding.
            assert!(
                (f.size_bits() as f64) < m as f64 * 1.10 + 4096.0,
                "bpk {bpk}: used {} of {m}",
                f.size_bits()
            );
        }
    }

    #[test]
    fn empty_keyset_never_matches() {
        let ks = KeySet::from_u64(&[]);
        let samples = SampleQueries::from_u64(&[(5, 10)]);
        let f = Proteus::train(&ks, &samples, 1024, &ProteusOptions::default());
        assert!(!f.query_u64(0, u64::MAX) || f.size_bits() == 0);
    }

    #[test]
    fn string_keys_roundtrip() {
        // 16-byte keys walk on the stack; 96-byte ones (past
        // `key::INLINE_KEY_BYTES`) on the heap scratch.
        for width in [16, 96] {
            let names = [&b"alpha"[..], b"beta", b"gamma", b"delta", b"epsilon"];
            let ks = KeySet::from_strings(&names, width);
            let mut samples = SampleQueries::new(width);
            samples.push(&pad_key(b"zeta", width), &pad_key(b"zeta~~~", width));
            samples.push(&pad_key(b"aaaa", width), &pad_key(b"aaab", width));
            // 64 bits a key: enough for a 13-bit span bitmap, the first
            // depth that tells "aaaa" from "alpha" (no FST fits: at 14 bytes
            // it is twice this), and a Bloom filter whose rate is still a
            // number, so the stage wins on the sample and not on a tie.
            let m = 5 * 64;
            for l2 in [0, 40] {
                // The trained design, then a fixed Bloom-bearing one.
                let opts = ProteusOptions { hash_family: HashFamily::ClHash, ..Default::default() };
                let f = match l2 {
                    0 => Proteus::train(&ks, &samples, m, &opts),
                    _ => Proteus::build_with_design(
                        &ks,
                        ProteusDesign::bloom_only(l2, 0.0),
                        m,
                        &opts,
                    ),
                };
                assert!(f.size_bits() <= m, "{:?} takes {} bits", f.design(), f.size_bits());
                assert_eq!(f.coarse_encoding().is_some(), l2 == 0, "{:?}", f.design());
                for n in names {
                    assert!(f.query_str(n, n), "{}", String::from_utf8_lossy(n));
                }
                assert!(f.query_str(b"alp", b"alz"));
                assert!(!f.query_str(b"zeta", b"zeta~"), "width {width} design {:?}", f.design());
            }
        }
    }
}
