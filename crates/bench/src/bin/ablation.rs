//! Ablation study of Proteus's design choices (beyond the paper's figures,
//! backing the §4.3 engineering claims):
//!
//! 1. **Exponential binning** — modeling accuracy and cost with and without
//!    the batched-bin FPR evaluation (§4.3: binning "significantly reduces
//!    the amount of modeling work and has little effect on the accuracy").
//!    Here the bin effect shows as the residual between binned expected
//!    FPR and observed FPR versus sampling noise.
//! 2. **Coarse design search** — FPR of the design found with 16/32/128
//!    sampled Bloom prefix lengths versus the exhaustive search (§7.2's
//!    order-of-magnitude speedup claim).
//! 3. **Coarse-stage memory** — priced vs built size of the coarse stage
//!    (Algorithm 1's `trieMem`) in its cheaper encoding, at every byte
//!    depth and at the bit depths the model tried. `tests` in
//!    `core::trie` hold the same numbers to 5 % (FST) and to the bit
//!    (span bitmap).
//!
//! Run: `cargo run -p proteus-bench --release --bin ablation`

use proteus_bench::cli::Args;
use proteus_bench::measure::{measure_fpr, Timed};
use proteus_bench::report::Table;
use proteus_bench::scenario;
use proteus_core::model::proteus::{ProteusModel, ProteusModelOptions};
use proteus_core::trie::ProteusTrie;
use proteus_core::{Proteus, ProteusOptions};
use proteus_workloads::{Dataset, Workload};

fn main() {
    let args = Args::parse(200_000, 20_000, 10_000);
    let m_bits = args.keys as u64 * 12;
    let workload =
        Workload::Split { uniform_rmax: 1 << 15, correlated_rmax: 32, corr_degree: 1 << 10 };
    let sc = scenario::setup(
        Dataset::Normal,
        &workload,
        args.keys,
        args.samples,
        args.queries,
        args.seed,
    );

    // --- 1 + 2: coarse vs exhaustive design search ---------------------
    let mut t = Table::new(
        "Ablation: design-search granularity",
        &["l2_candidates", "model_ms", "chosen_l1", "coarse", "chosen_l2", "expected", "observed"],
    );
    for max_l2 in [16usize, 32, 128, 0] {
        let opts = ProteusModelOptions { max_bloom_lengths: max_l2 };
        let timed = Timed::run(|| ProteusModel::build(&sc.keyset, &sc.samples, m_bits, &opts));
        let design = timed.value.best_design(&sc.keyset, m_bits);
        let filter =
            Proteus::build_with_design(&sc.keyset, design, m_bits, &ProteusOptions::default());
        let observed = measure_fpr(&filter, &sc.eval);
        t.row(vec![
            if max_l2 == 0 { "all(64)".into() } else { max_l2.to_string() },
            format!("{:.1}", timed.millis),
            design.trie_depth_bits.to_string(),
            filter.coarse_encoding().map_or("-".into(), |e| e.to_string()),
            design.bloom_prefix_len.to_string(),
            format!("{:.4}", design.expected_fpr),
            format!("{observed:.4}"),
        ]);
    }
    t.finish(args.out.as_deref(), "ablation_search");

    // --- 3: coarse-stage memory, priced vs built -------------------------
    let mut t = Table::new(
        "Ablation: trieMem as priced vs coarse stage as built",
        &["depth_bits", "coarse", "priced_bits", "actual_bits", "ratio"],
    );
    let model =
        ProteusModel::build(&sc.keyset, &sc.samples, m_bits, &ProteusModelOptions::default());
    let mut depths: Vec<usize> = (1..=8).map(|d| d * 8).collect();
    depths.extend(model.l1_candidates().iter().filter(|&&l1| l1 % 8 != 0));
    depths.sort_unstable();
    for l1 in depths {
        let Some((encoding, priced)) = ProteusTrie::cheapest(&sc.keyset, l1) else { continue };
        let actual = ProteusTrie::build(&sc.keyset, l1).size_bits();
        t.row(vec![
            l1.to_string(),
            encoding.to_string(),
            priced.to_string(),
            actual.to_string(),
            format!("{:.3}", actual as f64 / priced.max(1) as f64),
        ]);
    }
    t.finish(args.out.as_deref(), "ablation_triemem");
}
