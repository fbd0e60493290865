//! Table 2: breakdown of modeling + construction cost for 1PBF, 2PBF,
//! Proteus, SuRF and Rosetta.
//!
//! Paper setting: 10M normally distributed keys, 20K correlated empty
//! sample queries (correlated just enough that most pass the trie), range
//! sizes uniform in [2, 2^20] (2PBF capped at 2^15 in the paper because of
//! binomial overflow — our closed form needs no cap, but we keep the
//! column for comparability), 10 BPK.
//!
//! Run: `cargo run -p proteus-bench --release --bin table2_costs -- --keys 10000000`

use proteus_bench::cli::Args;
use proteus_bench::measure::Timed;
use proteus_bench::report::{ms, Table};
use proteus_core::model::proteus::{ProteusModel, ProteusModelOptions};
use proteus_core::model::two_pbf::{TwoPbfModel, TwoPbfOptions};
use proteus_core::{KeySet, SampleQueries};
use proteus_core::{Proteus, ProteusOptions, TwoPbf, TwoPbfFilterOptions};
use proteus_filters::{Rosetta, RosettaOptions, Surf, SurfSuffix};
use proteus_workloads::{Dataset, QueryGen, Workload};

fn main() {
    let args = Args::parse(1_000_000, 0, 20_000);
    println!(
        "Table 2 reproduction: {} normal keys, {} correlated samples, 10 BPK",
        args.keys, args.samples
    );

    let raw = Dataset::Normal.generate(args.keys, args.seed);
    let workload = Workload::Correlated { rmax: 1 << 20, corr_degree: 1 << 16 };
    let m_bits = (args.keys as u64) * 10;

    // Phase: count key prefixes (KeySet construction computes |K_l| and the
    // trie statistics in one O(|K|) pass).
    let keyset = Timed::run(|| KeySet::from_u64(&raw));
    let ks = keyset.value;

    let sample_ranges =
        QueryGen::new(workload, &raw, &[], args.seed ^ 1).empty_ranges(args.samples);
    let samples = SampleQueries::from_u64(&sample_ranges);

    // Phase: calculate trie memory (all byte depths).
    let trie_mem = Timed::run(|| (1..=8usize).map(|d| ks.trie_mem_bits(d)).collect::<Vec<_>>());

    let mut t = Table::new(
        "Table 2: construction cost breakdown (ms)",
        &[
            "filter",
            "count_key_prefixes",
            "calc_trie_mem",
            "count_query_prefixes",
            "calc_config_fprs",
            "build_filter",
            "total",
        ],
    );

    // --- 1PBF --- (Proteus at trie depth 0)
    let m1 = Timed::run(|| ProteusModel::bloom_only(&ks, &samples));
    let d1 = Timed::run(|| m1.value.best_design(&ks, m_bits));
    let b1 = Timed::run(|| {
        Proteus::build_with_design(&ks, d1.value, m_bits, &ProteusOptions::default())
    });
    t.row(vec![
        "1PBF".into(),
        ms(keyset.millis),
        "-".into(),
        ms(m1.millis),
        ms(d1.millis),
        ms(b1.millis),
        ms(keyset.millis + m1.millis + d1.millis + b1.millis),
    ]);

    // --- 2PBF --- (the paper's expensive case; closed-form Eq. 4)
    let m2 = Timed::run(|| TwoPbfModel::build(&ks, &samples, m_bits, &TwoPbfOptions::default()));
    let d2 = Timed::run(|| m2.value.best_design());
    let b2 = Timed::run(|| {
        TwoPbf::build_with_design(&ks, d2.value, m_bits, &TwoPbfFilterOptions::default())
    });
    t.row(vec![
        "2PBF".into(),
        ms(keyset.millis),
        "-".into(),
        ms(m2.millis),
        ms(d2.millis),
        ms(b2.millis),
        ms(keyset.millis + m2.millis + d2.millis + b2.millis),
    ]);
    println!(
        "  2PBF design: l1={} l2={} split={} (expected FPR {:.4})",
        d2.value.l1, d2.value.l2, d2.value.split, d2.value.expected_fpr
    );

    // --- Proteus ---
    let optsp = ProteusModelOptions::default();
    let mp = Timed::run(|| ProteusModel::build(&ks, &samples, m_bits, &optsp));
    let dp = Timed::run(|| mp.value.best_design(&ks, m_bits));
    let bp = Timed::run(|| {
        Proteus::build_with_design(&ks, dp.value, m_bits, &ProteusOptions::default())
    });
    t.row(vec![
        "Proteus".into(),
        ms(keyset.millis),
        ms(trie_mem.millis),
        ms(mp.millis),
        ms(dp.millis),
        ms(bp.millis),
        ms(keyset.millis + trie_mem.millis + mp.millis + dp.millis + bp.millis),
    ]);
    println!(
        "  Proteus design: l1={} l2={} (expected FPR {:.4})",
        dp.value.trie_depth_bits, dp.value.bloom_prefix_len, dp.value.expected_fpr
    );

    // --- SuRF --- (no modeling)
    let bs = Timed::run(|| Surf::build(&ks, SurfSuffix::Base));
    t.row(vec![
        "SuRF".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        ms(bs.millis),
        ms(bs.millis),
    ]);
    drop(bs);

    // --- Rosetta --- (tuning + multi-level Bloom construction)
    let br = Timed::run(|| Rosetta::train(&ks, &samples, m_bits, &RosettaOptions::default()));
    t.row(vec![
        "Rosetta".into(),
        ms(keyset.millis),
        "-".into(),
        "-".into(),
        "-".into(),
        ms(br.millis),
        ms(keyset.millis + br.millis),
    ]);
    println!("  Rosetta config: {}", proteus_core::RangeFilter::name(&br.value));

    t.finish(args.out.as_deref(), "table2_costs");
}
