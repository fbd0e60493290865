//! Integration test of the paper's central claim (§5.1, Fig. 4): the CPFPR
//! model's expected FPR matches the observed FPR across the design space,
//! and the self-selected design is near-optimal among evaluated designs.

use proteus::core::model::proteus::{ProteusDesign, ProteusModel, ProteusModelOptions};
use proteus::core::{KeySet, Proteus, ProteusOptions, RangeFilter, SampleQueries};
use proteus::lsm::{FilterFactory, ProteusFactory};
use proteus::workloads::{Dataset, QueryGen, Workload};
use proteus::{Db, DbConfig};
use std::sync::{Arc, Mutex};

fn observed(filter: &dyn RangeFilter, eval: &SampleQueries) -> f64 {
    let fps = eval.iter().filter(|(lo, hi)| filter.may_contain_range(lo, hi)).count();
    fps as f64 / eval.len().max(1) as f64
}

#[test]
fn one_pbf_model_tracks_reality_across_designs() {
    let raw = Dataset::Uniform.generate(20_000, 3);
    let keys = KeySet::from_u64(&raw);
    let workload = Workload::Uniform { rmax: 1 << 10 };
    let samples =
        SampleQueries::from_u64(&QueryGen::new(workload.clone(), &raw, &[], 5).empty_ranges(5_000));
    let eval = SampleQueries::from_u64(&QueryGen::new(workload, &raw, &[], 77).empty_ranges(5_000));
    let model = ProteusModel::bloom_only(&keys, &samples);
    let m = 20_000 * 10;
    for l in (24..=64usize).step_by(8) {
        let expected = model.expected_fpr(&keys, 0, l, m).unwrap();
        let filter = Proteus::build_with_design(
            &keys,
            ProteusDesign::bloom_only(l, expected),
            m,
            &ProteusOptions::default(),
        );
        let obs = observed(&filter, &eval);
        assert!(
            (expected - obs).abs() < 0.06,
            "1PBF l={l}: expected {expected:.4} observed {obs:.4}"
        );
    }
}

#[test]
fn proteus_model_tracks_reality_and_selects_well() {
    let raw = Dataset::Normal.generate(20_000, 9);
    let keys = KeySet::from_u64(&raw);
    let workload =
        Workload::Split { uniform_rmax: 1 << 14, correlated_rmax: 32, corr_degree: 1 << 10 };
    let samples =
        SampleQueries::from_u64(&QueryGen::new(workload.clone(), &raw, &[], 5).empty_ranges(5_000));
    let eval = SampleQueries::from_u64(&QueryGen::new(workload, &raw, &[], 99).empty_ranges(5_000));
    let m = 20_000 * 12;
    let model = ProteusModel::build(&keys, &samples, m, &ProteusModelOptions::default());

    // Accuracy across a design sample.
    let mut worst = 0.0f64;
    let mut evaluated: Vec<(usize, usize, f64)> = Vec::new();
    for &l1 in model.l1_candidates() {
        for l2 in [l1 + 4, l1 + 16, 48, 56, 62, 64] {
            if l2 <= l1 || l2 > 64 {
                continue;
            }
            let Some(expected) = model.expected_fpr(&keys, l1, l2, m) else { continue };
            let design = ProteusDesign {
                trie_depth_bits: l1,
                bloom_prefix_len: l2,
                expected_fpr: expected,
                trie_mem_bits: model.trie_mem_for(l1).unwrap(),
            };
            let filter = Proteus::build_with_design(&keys, design, m, &ProteusOptions::default());
            let obs = observed(&filter, &eval);
            worst = worst.max((expected - obs).abs());
            evaluated.push((l1, l2, obs));
        }
    }
    assert!(worst < 0.08, "max model error {worst:.4}");

    // The chosen design's observed FPR must be within noise of the best
    // evaluated design (the Fig. 5 claim: Proteus picks near-optimal).
    let chosen = Proteus::train(&keys, &samples, m, &ProteusOptions::default());
    let chosen_obs = observed(&chosen, &eval);
    let best_obs = evaluated.iter().map(|&(_, _, o)| o).fold(f64::INFINITY, f64::min);
    assert!(
        chosen_obs <= best_obs + 0.05,
        "chosen design ({:?}) observed {chosen_obs:.4} vs best evaluated {best_obs:.4}",
        chosen.design()
    );
}

#[test]
fn proteus_beats_brittle_designs_on_adversarial_split() {
    // §5.1's adversarial case: short correlated + long uniform queries.
    // Single-technique designs (pure Bloom at one length) must lose to the
    // hybrid chosen by the model.
    let raw = Dataset::Normal.generate(20_000, 4);
    let keys = KeySet::from_u64(&raw);
    let workload =
        Workload::Split { uniform_rmax: 1 << 16, correlated_rmax: 16, corr_degree: 1 << 8 };
    let samples =
        SampleQueries::from_u64(&QueryGen::new(workload.clone(), &raw, &[], 5).empty_ranges(4_000));
    let eval = SampleQueries::from_u64(&QueryGen::new(workload, &raw, &[], 55).empty_ranges(4_000));
    let m = 20_000 * 10;
    let trained = Proteus::train(&keys, &samples, m, &ProteusOptions::default());
    let trained_fpr = observed(&trained, &eval);

    for l2 in [40usize, 64] {
        let fixed = Proteus::build_with_design(
            &keys,
            ProteusDesign {
                trie_depth_bits: 0,
                bloom_prefix_len: l2,
                expected_fpr: 0.0,
                trie_mem_bits: 0,
            },
            m,
            &ProteusOptions::default(),
        );
        let fixed_fpr = observed(&fixed, &eval);
        assert!(
            trained_fpr <= fixed_fpr + 0.02,
            "trained {trained_fpr:.4} vs fixed l2={l2} {fixed_fpr:.4}"
        );
    }
}

/// [`ProteusFactory`], keeping the FPR the model predicted for every filter
/// it trained.
#[derive(Default)]
struct RecordingFactory(Mutex<Vec<f64>>);

impl FilterFactory for RecordingFactory {
    fn build(&self, keys: &KeySet, samples: &SampleQueries, m_bits: u64) -> Box<dyn RangeFilter> {
        let filter = Proteus::train(keys, samples, m_bits, &ProteusOptions::default());
        self.0.lock().unwrap().push(filter.design().expected_fpr);
        Box::new(filter)
    }
    fn name(&self) -> String {
        ProteusFactory::default().name()
    }
}

#[test]
fn the_store_observes_the_fpr_its_filters_were_designed_for() {
    // The claim one level up: inside the store every file's filter is
    // trained on the file's view of the sample queue, so what the files
    // predict is what the store then observes — not the FPR of a key space
    // seven eighths of which no file is ever asked about.
    let dir = std::env::temp_dir().join(format!("proteus-model-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut raw = Dataset::Uniform.generate(100_000, 21);
    raw.sort_unstable();
    let workload =
        Workload::Split { uniform_rmax: 1 << 15, correlated_rmax: 32, corr_degree: 1 << 10 };
    let canonical = |(lo, hi): (u64, u64)| (lo.to_be_bytes().to_vec(), hi.to_be_bytes().to_vec());
    let factory = Arc::new(RecordingFactory::default());
    let cfg = DbConfig::builder()
        .memtable_bytes(1 << 20)
        .sst_target_bytes(1 << 20)
        .level_base_bytes(2 << 20)
        .build()
        .unwrap();
    let db = Db::open(&dir, cfg, Arc::clone(&factory) as Arc<dyn FilterFactory>).unwrap();
    db.seed_queries(
        QueryGen::new(workload.clone(), &raw, &[], 5)
            .empty_ranges(20_000)
            .into_iter()
            .map(canonical),
    );
    for i in 0..raw.len() {
        // Scattered arrival order (7 919 is coprime to the key count), so
        // every flushed file spans the key space.
        db.put_u64(raw[i * 7_919 % raw.len()], &[i as u8; 64]).unwrap();
    }
    db.flush_and_settle().unwrap();
    assert!(db.level_file_counts().iter().skip(1).any(|&n| n > 1), "{:?}", db.level_file_counts());

    let before = db.stats().snapshot();
    for (lo, hi) in QueryGen::new(workload, &raw, &[], 77).empty_ranges(50_000) {
        assert!(!db.seek_u64(lo, hi).unwrap());
    }
    let after = db.stats().snapshot();
    let delta = after.delta(&before);
    let (fp, tn) = (delta.observed_fp, delta.filter_negatives);
    let observed = fp as f64 / (fp + tn) as f64;
    let mut predicted = factory.0.lock().unwrap().clone();
    predicted.sort_by(f64::total_cmp);
    let median = predicted[predicted.len() / 2];
    assert!(
        (observed - median).abs() < 0.05,
        "observed {observed:.4} over {} probes, median prediction {median:.4} of {predicted:.3?}",
        fp + tn
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
