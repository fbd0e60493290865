//! The paper's thesis, cell by cell (§3–§5): the Protean design space
//! *contains* the trie-only and the Bloom-only designs, so a well-modelled
//! Proteus does not lose to a filter drawn from a subset of its own space at
//! equal memory — and, the stronger claim of Fig. 5/6, not to SuRF either.
//!
//! The first kind of cell is guaranteed by construction and must stay green:
//! Proteus as this repository builds it (byte depths *and* bit depths, FST or
//! span bitmap) against 1PBF (its depth-0 slice) and against the paper's own
//! candidate list (depth 0 and the byte depths). The second kind is the open
//! half of ROADMAP item 2: committed `#[ignore]`d with its numbers, to be
//! un-ignored when a widening closes it.

use proteus::core::model::proteus::{ProteusDesign, ProteusModel, ProteusModelOptions};
use proteus::core::{KeySet, Proteus, ProteusOptions, RangeFilter, SampleQueries};
use proteus::filters::{Surf, SurfSuffix};
use proteus::workloads::{Dataset, QueryGen, Workload};

/// Enough keys that the depths between two bytes matter: at 10 bits a key a
/// 16-bit bitmap is a tenth of the budget and a 24-bit one forty times it.
const KEYS: usize = 50_000;
const BITS_PER_KEY: u64 = 10;
/// Sampling noise of an FPR observed over 4 000 queries (two standard
/// deviations at 0.2), the only slack the guaranteed cells get.
const NOISE: f64 = 0.013;

fn workloads() -> [Workload; 3] {
    [
        Workload::Uniform { rmax: 1 << 15 },
        Workload::Correlated { rmax: 1 << 7, corr_degree: 1 << 10 },
        Workload::Split { uniform_rmax: 1 << 15, correlated_rmax: 32, corr_degree: 1 << 10 },
    ]
}

struct Cell {
    name: String,
    keys: KeySet,
    samples: SampleQueries,
    eval: SampleQueries,
}

fn cell(dataset: Dataset, workload: &Workload) -> Cell {
    let raw = dataset.generate(KEYS, 31);
    let queries = |seed: u64, n: usize| {
        SampleQueries::from_u64(&QueryGen::new(workload.clone(), &raw, &[], seed).empty_ranges(n))
    };
    Cell {
        name: format!("{} keys x {} queries", dataset.name(), workload.name()),
        keys: KeySet::from_u64(&raw),
        samples: queries(5, 4_000),
        eval: queries(77, 4_000),
    }
}

fn observed(filter: &dyn RangeFilter, eval: &SampleQueries) -> f64 {
    let fps = eval.iter().filter(|(lo, hi)| filter.may_contain_range(lo, hi)).count();
    fps as f64 / eval.len() as f64
}

/// The best design among the paper's candidates only — depth 0 and the byte
/// depths — read off the same model the widened selection uses.
fn byte_only_design(model: &ProteusModel, keys: &KeySet, m: u64) -> ProteusDesign {
    let mut best = ProteusDesign::bloom_only(0, f64::INFINITY);
    for &l1 in model.l1_candidates().iter().filter(|&&l1| l1 % 8 == 0) {
        for &l2 in std::iter::once(&0).chain(model.l2_values()) {
            let Some(fpr) = model.expected_fpr(keys, l1, l2, m).filter(|_| l2 == 0 || l2 > l1)
            else {
                continue;
            };
            if fpr <= best.expected_fpr {
                best = ProteusDesign {
                    trie_depth_bits: l1,
                    bloom_prefix_len: l2,
                    expected_fpr: fpr,
                    trie_mem_bits: model.trie_mem_for(l1).unwrap(),
                };
            }
        }
    }
    best
}

#[test]
fn widened_proteus_loses_to_no_subset_of_its_own_space() {
    let mut widened_somewhere = false;
    for dataset in [Dataset::Uniform, Dataset::Normal] {
        for workload in workloads() {
            let Cell { name, keys, samples, eval } = cell(dataset, &workload);
            let m = KEYS as u64 * BITS_PER_KEY;
            let opts = ProteusOptions::default();
            let model = ProteusModel::build(&keys, &samples, m, &ProteusModelOptions::default());
            let proteus = Proteus::build_with_design(&keys, model.best_design(&keys, m), m, &opts);
            let byte_only =
                Proteus::build_with_design(&keys, byte_only_design(&model, &keys, m), m, &opts);
            let one_pbf_design = ProteusModel::bloom_only(&keys, &samples).best_design(&keys, m);
            let one_pbf = Proteus::build_with_design(&keys, one_pbf_design, m, &opts);

            // Equal measured bits: nobody wins by spending more.
            for filter in [&proteus as &dyn RangeFilter, &byte_only, &one_pbf] {
                let bits = filter.size_bits() as f64;
                assert!(bits <= m as f64 * 1.01, "{name}: {} takes {bits} of {m}", filter.name());
            }
            let (ours, bytes, bloom) =
                (observed(&proteus, &eval), observed(&byte_only, &eval), observed(&one_pbf, &eval));
            println!(
                "{name}: {} {ours:.4} | byte depths only {} {bytes:.4} | {} {bloom:.4}",
                proteus.name(),
                byte_only.name(),
                one_pbf.name()
            );
            assert!(ours <= bloom + NOISE, "{name}: {} {ours} vs 1PBF {bloom}", proteus.name());
            assert!(ours <= bytes + NOISE, "{name}: {} {ours} vs {bytes}", proteus.name());
            // And the model knew: what it predicted for its pick is what the
            // pick then did.
            let predicted = proteus.design().expected_fpr;
            assert!((predicted - ours).abs() < 0.03, "{name}: predicted {predicted}, saw {ours}");
            widened_somewhere |= !proteus.design().trie_depth_bits.is_multiple_of(8);
        }
    }
    assert!(widened_somewhere, "no cell chose a bit depth: the widening is not being exercised");
}

#[test]
fn proteus_beats_surf_at_surfs_own_bits_on_the_fig6_cell() {
    // Matched measured bits, same keys, same queries: Proteus gets exactly
    // what SuRF-Real(4) takes.
    let workload =
        Workload::Split { uniform_rmax: 1 << 15, correlated_rmax: 32, corr_degree: 1 << 10 };
    let Cell { name, keys, samples, eval } = cell(Dataset::Uniform, &workload);
    let surf = Surf::build(&keys, SurfSuffix::Real(4));
    let m = surf.size_bits();
    let proteus = Proteus::train(&keys, &samples, m, &ProteusOptions::default());
    assert!(proteus.size_bits() <= m + m / 100, "{} takes {} of {m}", proteus.name(), m);
    let (ours, theirs) = (observed(&proteus, &eval), observed(&surf, &eval));
    println!(
        "{name} at {:.2} bits/key: {} {ours:.4} | {} {theirs:.4}",
        bpk(m),
        proteus.name(),
        surf.name()
    );
    assert!(
        ours <= theirs + NOISE,
        "{name}: {} {ours} vs {} {theirs}",
        proteus.name(),
        surf.name()
    );
}

fn bpk(bits: u64) -> f64 {
    bits as f64 / KEYS as f64
}

#[test]
#[ignore = "open (ROADMAP item 2): as the seek_empty layer replay reads it, core.fpr is 0.156 at \
            10.0 bits/key where filters.surf.fpr is 0.122 at 8.64 (0.180 before the span bitmap)"]
fn proteus_matches_the_surf_row_of_the_layer_replay() {
    // The replay's two rows are not one cell: of the store's 300 k keys
    // Proteus is built over every second one and SuRF over every sixth, and
    // both are probed with queries correlated to *all* of them — so five in
    // six of SuRF's "correlated" queries sit next to a key it does not hold,
    // and that looser question is answered at fewer bits. (Same keys, same
    // queries, same bits is the cell above, and green.) Reproduced here as
    // the replay poses it, for the widening — per-leaf suffix bits — that is
    // to beat it anyway.
    let workload =
        Workload::Split { uniform_rmax: 1 << 15, correlated_rmax: 32, corr_degree: 1 << 10 };
    let store = Dataset::Uniform.generate(6 * KEYS, 31);
    let queries = |seed: u64, keys: &KeySet| {
        let all = QueryGen::new(workload.clone(), &store, &[], seed).empty_ranges(8_000);
        let mut empty = SampleQueries::from_u64(&all);
        empty.retain_empty(keys);
        empty
    };
    let every = |n: usize| KeySet::from_u64(&store.iter().copied().step_by(n).collect::<Vec<_>>());

    let keys = every(2);
    let m = keys.len() as u64 * BITS_PER_KEY;
    let proteus = Proteus::train(&keys, &queries(5, &keys), m, &ProteusOptions::default());
    let ours = observed(&proteus, &queries(77, &keys));
    let small = every(6);
    let surf = Surf::build(&small, SurfSuffix::Real(4));
    let theirs = observed(&surf, &queries(77, &small));
    assert!(
        ours <= theirs + NOISE,
        "{} {ours:.4} at {:.2} bits/key vs {} {theirs:.4} at {:.2}",
        proteus.name(),
        proteus.size_bits() as f64 / keys.len() as f64,
        surf.name(),
        surf.size_bits() as f64 / small.len() as f64
    );
}
