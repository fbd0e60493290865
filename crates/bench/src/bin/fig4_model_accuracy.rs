//! Figure 4: "The CPFPR model accurately predicts the FPR for all possible
//! designs of different Protean Range Filters."
//!
//! * part a — 1PBF (Proteus at trie depth 0): expected vs observed FPR
//!   across prefix lengths, (1) varying RMAX on Uniform-Uniform, (2)
//!   varying CORRDEGREE on Uniform-Correlated (RMAX fixed at 2^7);
//! * part b — 2PBF: expected vs observed over the (l1, l2) design matrix on
//!   Normal-Split (short correlated + long uniform queries);
//! * part c — Proteus: the same matrix over (trie depth, Bloom prefix).
//!
//! Run: `cargo run -p proteus-bench --release --bin fig4_model_accuracy -- --part a`

use proteus_bench::cli::Args;
use proteus_bench::measure::measure_fpr;
use proteus_bench::report::Table;
use proteus_bench::scenario;
use proteus_core::model::proteus::{ProteusDesign, ProteusModel, ProteusModelOptions};
use proteus_core::model::two_pbf::{TwoPbfDesign, TwoPbfModel, TwoPbfOptions};
use proteus_core::{Proteus, ProteusOptions, TwoPbf, TwoPbfFilterOptions};
use proteus_workloads::{Dataset, Workload};

fn main() {
    let args = Args::parse(200_000, 10_000, 10_000);
    match args.part.as_str() {
        "a" => part_a(&args),
        "b" => part_b(&args),
        "c" => part_c(&args),
        _ => {
            part_a(&args);
            part_b(&args);
            part_c(&args);
        }
    }
}

/// 1PBF accuracy across the prefix-length design space.
fn part_a(args: &Args) {
    let m_bits = args.keys as u64 * args.get_u64("fig4-bpk", 10);
    let mut t = Table::new(
        "Fig 4a: 1PBF expected vs observed FPR",
        &["experiment", "param_log2", "prefix_len", "expected", "observed"],
    );

    let step = args.get_usize("step", 2);
    let run = |t: &mut Table, experiment: &str, param: u32, workload: Workload, seed: u64| {
        let sc = scenario::setup(
            Dataset::Uniform,
            &workload,
            args.keys,
            args.samples,
            args.queries,
            seed,
        );
        let model = ProteusModel::bloom_only(&sc.keyset, &sc.samples);
        for l in (20..=64usize).step_by(step) {
            let e = model.expected_fpr(&sc.keyset, 0, l, m_bits).expect("l in 1..=bits");
            let f = Proteus::build_with_design(
                &sc.keyset,
                ProteusDesign::bloom_only(l, e),
                m_bits,
                &ProteusOptions::default(),
            );
            let o = measure_fpr(&f, &sc.eval);
            t.row(vec![
                experiment.to_string(),
                param.to_string(),
                l.to_string(),
                format!("{e:.4}"),
                format!("{o:.4}"),
            ]);
        }
    };

    // (1) range-size sweep on Uniform-Uniform.
    for (i, rexp) in [3u32, 7, 11, 15, 19].iter().enumerate() {
        run(&mut t, "rmax", *rexp, Workload::Uniform { rmax: 1 << rexp }, args.seed ^ i as u64);
    }
    // (2) correlation sweep on Uniform-Correlated at RMAX 2^7.
    for (i, cexp) in [3u32, 7, 11, 15, 19].iter().enumerate() {
        run(
            &mut t,
            "corr",
            *cexp,
            Workload::Correlated { rmax: 1 << 7, corr_degree: 1 << cexp },
            args.seed ^ (0x100 + i as u64),
        );
    }
    t.finish(args.out.as_deref(), "fig4a_model_accuracy");
    summarize_accuracy(&t, "4a");
}

fn normal_split(rmax_large: u64) -> Workload {
    // §5.1: "Normal-Split with short range Correlated and long range
    // Uniform queries to necessitate the use of two prefix lengths."
    Workload::Split { uniform_rmax: rmax_large, correlated_rmax: 32, corr_degree: 1 << 10 }
}

/// 2PBF design matrix.
fn part_b(args: &Args) {
    let m_bits = args.keys as u64 * args.get_u64("fig4-bpk", 10);
    let sc = scenario::setup(
        Dataset::Normal,
        &normal_split(1 << 15),
        args.keys,
        args.samples,
        args.queries,
        args.seed,
    );
    let step = args.get_usize("step", 4);
    let model = TwoPbfModel::build(&sc.keyset, &sc.samples, m_bits, &TwoPbfOptions::default());

    let mut t = Table::new(
        "Fig 4b: 2PBF expected vs observed FPR over (l1, l2), 50-50 split",
        &["l1", "l2", "expected", "observed"],
    );
    let mut best: Option<TwoPbfDesign> = None;
    for l1 in (4..64usize).step_by(step) {
        for l2 in ((l1 + step)..=64usize).step_by(step) {
            let Some(expected) = model.expected_fpr(l1, l2, 1) else { continue };
            let design = TwoPbfDesign { l1, l2, split: 0.5, expected_fpr: expected };
            let f = TwoPbf::build_with_design(
                &sc.keyset,
                design,
                m_bits,
                &TwoPbfFilterOptions::default(),
            );
            let observed = measure_fpr(&f, &sc.eval);
            if best.is_none_or(|b| expected < b.expected_fpr) {
                best = Some(design);
            }
            t.row(vec![
                l1.to_string(),
                l2.to_string(),
                format!("{expected:.4}"),
                format!("{observed:.4}"),
            ]);
        }
    }
    if let Some(b) = best {
        println!("Best modeled 2PBF design: l1={} l2={} fpr={:.4}", b.l1, b.l2, b.expected_fpr);
    }
    t.finish(args.out.as_deref(), "fig4b_model_accuracy");
    summarize_accuracy(&t, "4b");
}

/// Proteus design matrix.
fn part_c(args: &Args) {
    let m_bits = args.keys as u64 * args.get_u64("fig4-bpk", 10);
    let sc = scenario::setup(
        Dataset::Normal,
        &normal_split(1 << 15),
        args.keys,
        args.samples,
        args.queries,
        args.seed,
    );
    let opts = ProteusModelOptions::default();
    let model = ProteusModel::build(&sc.keyset, &sc.samples, m_bits, &opts);
    let step = args.get_usize("step", 2);

    let mut t = Table::new(
        "Fig 4c: Proteus expected vs observed FPR over (trie depth, Bloom prefix)",
        &["l1", "l2", "expected", "observed", "trie_bits"],
    );
    for &l1 in model.l1_candidates() {
        for l2 in ((l1 + 1)..=64usize).step_by(step) {
            let Some(expected) = model.expected_fpr(&sc.keyset, l1, l2, m_bits) else { continue };
            let design = ProteusDesign {
                trie_depth_bits: l1,
                bloom_prefix_len: l2,
                expected_fpr: expected,
                trie_mem_bits: model.trie_mem_for(l1).unwrap_or(0),
            };
            let f =
                Proteus::build_with_design(&sc.keyset, design, m_bits, &ProteusOptions::default());
            let observed = measure_fpr(&f, &sc.eval);
            t.row(vec![
                l1.to_string(),
                l2.to_string(),
                format!("{expected:.4}"),
                format!("{observed:.4}"),
                design.trie_mem_bits.to_string(),
            ]);
        }
    }
    let best = model.best_design(&sc.keyset, m_bits);
    println!(
        "Best modeled Proteus design: l1={} l2={} fpr={:.4}",
        best.trie_depth_bits, best.bloom_prefix_len, best.expected_fpr
    );
    t.finish(args.out.as_deref(), "fig4c_model_accuracy");
    summarize_accuracy(&t, "4c");
}

/// Print mean |expected - observed| over the matrix (the figure's headline:
/// the model is accurate everywhere).
fn summarize_accuracy(t: &Table, tag: &str) {
    let (mut sum, mut n, mut max) = (0.0f64, 0usize, 0.0f64);
    for row in t.rows() {
        let cols = row.len();
        // expected/observed are the last two (4a) or at positions 2,3 (4b/4c).
        let (e, o): (f64, f64) = if cols == 5 && row[0].parse::<usize>().is_ok() {
            (row[2].parse().unwrap_or(0.0), row[3].parse().unwrap_or(0.0))
        } else {
            (row[cols - 2].parse().unwrap_or(0.0), row[cols - 1].parse().unwrap_or(0.0))
        };
        let d = (e - o).abs();
        sum += d;
        max = max.max(d);
        n += 1;
    }
    if n > 0 {
        println!(
            "Fig {tag} accuracy: mean |exp-obs| = {:.4}, max = {:.4} over {n} designs",
            sum / n as f64,
            max
        );
    }
}
