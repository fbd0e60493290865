//! Cross-crate integration tests: every range filter in the workspace
//! (Proteus, 1PBF — Proteus at trie depth 0 — 2PBF, SuRF variants,
//! Rosetta) honors the same contract through the `RangeFilter` trait — no
//! false negatives ever, sane false positive behaviour, and
//! `decode(encode(f))` indistinguishable from `f`.

use proptest::prelude::*;
use proteus::core::key::{advance_prefix, mask_tail, u64_key};
use proteus::core::model::proteus::{ProteusDesign, ProteusModel, ProteusModelOptions};
use proteus::core::{
    CoarseEncoding, KeySet, Proteus, ProteusOptions, ProteusTrie, RangeFilter, SampleQueries,
    TwoPbf, TwoPbfFilterOptions,
};
use proteus::filters::{FilterCodec, Rosetta, RosettaOptions, Surf, SurfSuffix};
use proteus::workloads::{Dataset, QueryGen, Workload};

fn all_filters(keys: &KeySet, samples: &SampleQueries, m_bits: u64) -> Vec<Box<dyn RangeFilter>> {
    let two_opts = TwoPbfFilterOptions {
        model: proteus::core::model::two_pbf::TwoPbfOptions {
            max_l2_values: 16,
            ..Default::default()
        },
        ..Default::default()
    };
    vec![
        Box::new(Proteus::train(keys, samples, m_bits, &ProteusOptions::default())),
        Box::new(one_pbf(keys, samples, m_bits)),
        Box::new(TwoPbf::train(keys, samples, m_bits, &two_opts)),
        Box::new(Surf::build(keys, SurfSuffix::Base)),
        Box::new(Surf::build(keys, SurfSuffix::Hash(8))),
        Box::new(Surf::build(keys, SurfSuffix::Real(8))),
        Box::new(Rosetta::train(keys, samples, m_bits, &RosettaOptions::default())),
    ]
}

/// 1PBF: Proteus at trie depth 0, the design the Eq. 1 model picks.
fn one_pbf(keys: &KeySet, samples: &SampleQueries, m_bits: u64) -> Proteus {
    let design = ProteusModel::bloom_only(keys, samples).best_design(keys, m_bits);
    Proteus::build_with_design(keys, design, m_bits, &ProteusOptions::default())
}

#[test]
fn no_false_negatives_on_every_dataset() {
    for dataset in [Dataset::Uniform, Dataset::Normal, Dataset::Books, Dataset::Facebook] {
        let raw = dataset.generate(3_000, 17);
        let keys = KeySet::from_u64(&raw);
        let samples = SampleQueries::from_u64(
            &QueryGen::new(Workload::Uniform { rmax: 1 << 10 }, &raw, &[], 5).empty_ranges(300),
        );
        for filter in all_filters(&keys, &samples, 3_000 * 12) {
            for &k in raw.iter().step_by(61) {
                assert!(
                    filter.may_contain(&u64_key(k)),
                    "{} false negative on {} point {k:#x}",
                    filter.name(),
                    dataset.name()
                );
                let lo = u64_key(k.saturating_sub(3));
                let hi = u64_key(k.saturating_add(3));
                assert!(
                    filter.may_contain_range(&lo, &hi),
                    "{} false negative on {} range around {k:#x}",
                    filter.name(),
                    dataset.name()
                );
            }
            // Full-space range must always be positive on non-empty sets.
            assert!(filter.may_contain_range(&u64_key(0), &u64_key(u64::MAX)));
        }
    }
}

#[test]
fn trained_filters_filter_most_empty_queries() {
    let raw = Dataset::Uniform.generate(5_000, 23);
    let keys = KeySet::from_u64(&raw);
    let workload = Workload::Correlated { rmax: 64, corr_degree: 1 << 10 };
    let samples =
        SampleQueries::from_u64(&QueryGen::new(workload.clone(), &raw, &[], 7).empty_ranges(2_000));
    let eval =
        SampleQueries::from_u64(&QueryGen::new(workload, &raw, &[], 1234).empty_ranges(2_000));
    // The self-designing filters must achieve a reasonable FPR on a
    // workload they were trained for (small correlated ranges, 14 BPK).
    for filter in [
        Box::new(Proteus::train(&keys, &samples, 5_000 * 14, &ProteusOptions::default()))
            as Box<dyn RangeFilter>,
        Box::new(one_pbf(&keys, &samples, 5_000 * 14)),
    ] {
        let fps = eval.iter().filter(|(lo, hi)| filter.may_contain_range(lo, hi)).count();
        let fpr = fps as f64 / eval.len() as f64;
        assert!(fpr < 0.25, "{}: fpr {fpr}", filter.name());
    }
}

/// Round-trip a filter through the persistent codec and check it is
/// observationally identical on the given probes.
fn assert_roundtrip_identical(filter: &dyn RangeFilter, probes: &[(u64, u64)]) {
    let bytes = FilterCodec::encode(filter).unwrap_or_else(|e| {
        panic!("{} failed to encode: {e}", filter.name());
    });
    let back = FilterCodec::decode(&bytes).unwrap().filter;
    assert_eq!(back.name(), filter.name());
    assert_eq!(back.size_bits(), filter.size_bits(), "{} size_bits drift", filter.name());
    for &(lo, hi) in probes {
        let (lo_k, hi_k) = (u64_key(lo), u64_key(hi));
        assert_eq!(
            back.may_contain_range(&lo_k, &hi_k),
            filter.may_contain_range(&lo_k, &hi_k),
            "{} range [{lo:#x},{hi:#x}]",
            filter.name()
        );
        assert_eq!(
            back.may_contain(&lo_k),
            filter.may_contain(&lo_k),
            "{} point {lo:#x}",
            filter.name()
        );
    }
}

#[test]
fn every_filter_kind_roundtrips_on_every_dataset() {
    for dataset in [Dataset::Uniform, Dataset::Normal, Dataset::Books, Dataset::Facebook] {
        let raw = dataset.generate(2_000, 29);
        let keys = KeySet::from_u64(&raw);
        let samples = SampleQueries::from_u64(
            &QueryGen::new(Workload::Uniform { rmax: 1 << 12 }, &raw, &[], 5).empty_ranges(200),
        );
        // Probes: members, near-misses, and far-away ranges.
        let probes: Vec<(u64, u64)> = raw
            .iter()
            .step_by(43)
            .flat_map(|&k| {
                [
                    (k, k),
                    (k.saturating_sub(17), k.saturating_add(17)),
                    (k ^ (1 << 45), k ^ (1 << 45)),
                ]
            })
            .collect();
        for filter in all_filters(&keys, &samples, 2_000 * 12) {
            assert_roundtrip_identical(filter.as_ref(), &probes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized contract check: arbitrary key sets, arbitrary budgets,
    /// arbitrary query ranges — positives may be wrong, negatives never.
    #[test]
    fn randomized_no_false_negatives(
        seed in 0u64..1000,
        n_keys in 50usize..500,
        bpk in 6u64..20,
        spread in 1u64..(1 << 40),
    ) {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let raw: Vec<u64> = (0..n_keys).map(|_| next() % spread.max(1)).collect();
        let keys = KeySet::from_u64(&raw);
        let mut samples = SampleQueries::from_u64(
            &(0..50).map(|_| {
                let lo = next() % spread.max(1);
                (lo, lo.saturating_add(next() % 100))
            }).collect::<Vec<_>>(),
        );
        samples.retain_empty(&keys);
        for filter in all_filters(&keys, &samples, n_keys as u64 * bpk) {
            // Every key, every tight range around a key.
            for &k in raw.iter().step_by(7) {
                prop_assert!(filter.may_contain(&u64_key(k)), "{}", filter.name());
                let lo = u64_key(k.saturating_sub(next() % 50));
                let hi = u64_key(k.saturating_add(next() % 50));
                prop_assert!(filter.may_contain_range(&lo, &hi), "{}", filter.name());
            }
        }
    }

    /// The span bitmap, over arbitrary key sets at every depth it exists at:
    /// as a trie-only stage it answers exactly "does a key's `l1`-prefix fall
    /// in the window's", and under a Bloom filter it never loses a key —
    /// whether the span sits at the bottom of the key space, ends at its top,
    /// or is a single key, and wherever the window lies against it.
    #[test]
    fn span_bitmap_designs_never_lose_a_key(
        seed in 0u64..10_000,
        width_pick in 0usize..3,
        n_keys in 1usize..24,
        place in 0usize..3,
        tail_bits in 1usize..18,
    ) {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let width = [8usize, 16, 96][width_pick];
        let bits = width * 8;
        let (zeros, ones) = (vec![0u8; width], vec![0xFFu8; width]);
        // Keys share everything but their last `tail_bits` bits, so the span
        // stays a bitmap down to the full key length: at 0, at the top of
        // the key space (all-0xFF included), or anywhere.
        let mut base: Vec<u8> = match place {
            0 => zeros.clone(),
            1 => ones.clone(),
            _ => (0..width).map(|_| next() as u8).collect(),
        };
        mask_tail(&mut base, bits - tail_bits);
        let mut raw: Vec<Vec<u8>> = (0..n_keys)
            .map(|_| {
                let mut k = base.clone();
                advance_prefix(&mut k, bits, next() % (1 << tail_bits));
                k
            })
            .collect();
        match place {
            0 => raw[0] = zeros.clone(),
            1 => raw[0] = ones.clone(),
            _ => {}
        }
        let keys = KeySet::new(raw.clone(), width);
        let (min, max) = (keys.key(0).to_vec(), keys.key(keys.len() - 1).to_vec());
        let step = |key: &[u8], up: bool, by: u64| -> Vec<u8> {
            // `key ± by`, saturating at the ends of the key space.
            let mut k = key.to_vec();
            if up {
                if advance_prefix(&mut k, bits, by) {
                    k.fill(0xFF);
                }
            } else {
                k.iter_mut().for_each(|b| *b = !*b);
                if advance_prefix(&mut k, bits, by) {
                    k.fill(0xFF);
                }
                k.iter_mut().for_each(|b| *b = !*b);
            }
            k
        };
        // Windows: on and around every key; wholly below and above the span;
        // straddling either end; unbounded above; everything.
        let mut windows: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (zeros.clone(), step(&min, false, 1)),
            (step(&max, true, 1), ones.clone()),
            (zeros.clone(), min.clone()),
            (max.clone(), ones.clone()),
            (step(&min, false, next() % 64), step(&min, true, next() % 64)),
            (step(&max, false, next() % 64), step(&max, true, next() % 64)),
            (zeros.clone(), ones.clone()),
        ];
        for k in &raw {
            windows.push((k.clone(), k.clone()));
            windows.push((step(k, false, next() % 300), step(k, true, next() % 300)));
            windows.push((step(k, true, 1 + next() % 300), ones.clone()));
            let lo = step(k, true, 1 + next() % (1 << tail_bits));
            windows.push((lo.clone(), step(&lo, true, next() % 40)));
        }
        windows.retain(|(lo, hi)| lo <= hi);
        let prefix = |key: &[u8], l1: usize| {
            let mut k = key.to_vec();
            mask_tail(&mut k, l1);
            k
        };
        // Every depth for the narrow widths; both ends and a stride between
        // them for 96-byte keys.
        let depths: Vec<usize> = match width {
            96 => (1..bits).step_by(1 + seed as usize % 13).chain([bits - 1]).collect(),
            _ => (1..bits).collect(),
        };
        for l1 in depths {
            let span = ProteusTrie::build_as(&keys, l1, CoarseEncoding::SpanBitmap);
            prop_assert_eq!(Some(span.size_bits()), ProteusTrie::span_bits(&keys, l1));
            for (lo, hi) in &windows {
                let (lo_p, hi_p) = (prefix(lo, l1), prefix(hi, l1));
                let truth = raw.iter().map(|k| prefix(k, l1)).any(|k| lo_p <= k && k <= hi_p);
                prop_assert_eq!(span.overlaps(lo, hi), truth, "depth {} [{:x?}, {:x?}]", l1, lo, hi);
            }
        }
        // Under a Bloom filter: the shallowest and the deepest stage, and one
        // at a bit depth between.
        for l1 in [1, 1 + next() as usize % (bits - 1), bits - 1] {
            if l1 % 8 == 0 {
                continue; // a byte depth may be an FST; those have their own tests
            }
            let design = ProteusDesign {
                trie_depth_bits: l1,
                bloom_prefix_len: (l1 + 1 + next() as usize % 24).min(bits),
                expected_fpr: 0.0,
                trie_mem_bits: 0,
            };
            let m = (n_keys as u64 * 16).max(ProteusTrie::span_bits(&keys, l1).unwrap() + 64);
            let filter = Proteus::build_with_design(&keys, design, m, &ProteusOptions::default());
            prop_assert_eq!(filter.coarse_encoding(), Some(CoarseEncoding::SpanBitmap));
            let back = FilterCodec::decode(&FilterCodec::encode(&filter).unwrap()).unwrap().filter;
            prop_assert_eq!(back.name(), filter.name());
            for (lo, hi) in &windows {
                let holds_a_key = raw.iter().any(|k| lo <= k && k <= hi);
                let answer = filter.may_contain_range(lo, hi);
                prop_assert!(answer || !holds_a_key, "{} lost [{:x?}, {:x?}]", filter.name(), lo, hi);
                prop_assert_eq!(back.may_contain_range(lo, hi), answer, "{}", filter.name());
            }
        }
    }

    /// The paper's framing, as a property: 1PBF *is* Proteus at trie depth 0.
    /// For arbitrary keys, samples and budgets the Eq. 1 model's design is
    /// the depth-0 row of the full Proteus model, bit for bit.
    #[test]
    fn one_pbf_is_proteus_at_trie_depth_zero(
        seed in 0u64..1000,
        n_keys in 50usize..500,
        bpk in 1u64..20,
        spread in 1u64..(1 << 40),
    ) {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let raw: Vec<u64> = (0..n_keys).map(|_| next() % spread).collect();
        let keys = KeySet::from_u64(&raw);
        let mut samples = SampleQueries::from_u64(
            &(0..80).map(|_| {
                let lo = next() % spread;
                (lo, lo.saturating_add(next() % (1 << (next() % 24))))
            }).collect::<Vec<_>>(),
        );
        samples.retain_empty(&keys);
        let m = n_keys as u64 * bpk;

        let design = ProteusModel::bloom_only(&keys, &samples).best_design(&keys, m);
        let full = ProteusModel::build(&keys, &samples, m, &ProteusModelOptions::default());
        let row = (1..=64).map(|l| (l, full.expected_fpr(&keys, 0, l, m).unwrap()));
        // Algorithm 1's `<=`: the last minimum of the depth-0 row.
        let (l, fpr) = row.fold((0, f64::INFINITY), |best, d| if d.1 <= best.1 { d } else { best });
        prop_assert_eq!(
            (design.trie_depth_bits, design.bloom_prefix_len, design.expected_fpr.to_bits()),
            (0, l, fpr.to_bits())
        );
    }

    /// Randomized round-trip property: across datasets and memory budgets,
    /// the decoded filter answers exactly like the original on arbitrary
    /// probes (members, misses, and wide ranges alike).
    #[test]
    fn randomized_codec_roundtrip(
        seed in 0u64..1000,
        n_keys in 40usize..400,
        bpk in 6u64..20,
        dataset_pick in 0usize..4,
    ) {
        let dataset = [Dataset::Uniform, Dataset::Normal, Dataset::Books, Dataset::Facebook]
            [dataset_pick];
        let raw = dataset.generate(n_keys, seed.wrapping_add(7));
        let keys = KeySet::from_u64(&raw);
        let mut samples = SampleQueries::from_u64(
            &QueryGen::new(Workload::Uniform { rmax: 1 << 16 }, &raw, &[], seed)
                .empty_ranges(60),
        );
        samples.retain_empty(&keys);
        let mut s = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut probes: Vec<(u64, u64)> = raw
            .iter()
            .step_by(11)
            .map(|&k| (k.saturating_sub(next() % 64), k.saturating_add(next() % 64)))
            .collect();
        for _ in 0..40 {
            let lo = next();
            probes.push((lo, lo.saturating_add(next() % (1 << 20))));
        }
        for filter in all_filters(&keys, &samples, n_keys as u64 * bpk) {
            let bytes = FilterCodec::encode(filter.as_ref()).unwrap();
            let back = FilterCodec::decode(&bytes).unwrap().filter;
            prop_assert_eq!(back.size_bits(), filter.size_bits(), "{}", filter.name());
            for &(lo, hi) in &probes {
                let (lo_k, hi_k) = (u64_key(lo), u64_key(hi));
                prop_assert_eq!(
                    back.may_contain_range(&lo_k, &hi_k),
                    filter.may_contain_range(&lo_k, &hi_k),
                    "{} [{:#x},{:#x}]", filter.name(), lo, hi
                );
            }
        }
    }
}

/// Compile-time `Send`/`Sync` contract (the concurrent LSM store shares
/// filters across its reader threads and builds them on background
/// workers): the `Db`, every `RangeFilter` implementation in the
/// workspace, and every `FilterFactory` must be `Send + Sync`. Removing
/// a bound anywhere breaks this test at compile time.
#[test]
fn filters_and_db_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    // The store itself and its factory extension point.
    assert_send_sync::<proteus::lsm::Db>();
    assert_send_sync::<proteus::lsm::ProteusFactory>();
    assert_send_sync::<std::sync::Arc<dyn proteus::lsm::FilterFactory>>();
    // Every RangeFilter implementation in the workspace, and the
    // range-count extension.
    assert_send_sync::<Proteus>();
    assert_send_sync::<TwoPbf>();
    assert_send_sync::<proteus::core::CountingProteus>();
    assert_send_sync::<Surf>();
    assert_send_sync::<Rosetta>();
    // Trait objects as the Db actually holds them.
    assert_send_sync::<Box<dyn RangeFilter>>();
}
