//! Figure 1: "A self-designing filter achieves superior performance in a
//! wide variety of workloads" — an FPR heatmap over the workload space
//! (query range size × key-query correlation) for a prefix Bloom filter,
//! SuRF, Rosetta and Proteus. Darker (lower FPR) is better.
//!
//! Run: `cargo run -p proteus-bench --release --bin fig1_heatmap`

use proteus_bench::build::{build_filter, FilterKind};
use proteus_bench::cli::Args;
use proteus_bench::report::{fpr, Table};
use proteus_bench::{measure_fpr, scenario};
use proteus_workloads::{Dataset, Workload};

fn main() {
    let args = Args::parse(200_000, 20_000, 10_000);
    let bpk = args.get_u64("heatmap-bpk", 12);
    let m_bits = args.keys as u64 * bpk;

    // Grid: range size 2^1..2^19 × correlation degree (none = uniform,
    // else 2^c).
    let range_exps: Vec<u32> = vec![1, 4, 7, 10, 13, 16, 19];
    let corr_exps: Vec<Option<u32>> = vec![None, Some(24), Some(16), Some(10), Some(4)];
    let kinds =
        [FilterKind::BloomOnly, FilterKind::SurfBest, FilterKind::Rosetta, FilterKind::Proteus];

    let mut t = Table::new(
        &format!("Figure 1: FPR heatmap at {bpk} BPK ({} keys)", args.keys),
        &["filter", "correlation", "rmax_log2", "fpr"],
    );

    for kind in kinds {
        println!("\n--- {} ---", kind.name());
        print!("{:>12}", "corr\\rmax");
        for re in &range_exps {
            print!("  2^{re:<4}");
        }
        println!();
        for corr in &corr_exps {
            let corr_name = corr.map_or("uniform".to_string(), |c| format!("2^{c}"));
            print!("{corr_name:>12}");
            for &re in &range_exps {
                let workload = match corr {
                    None => Workload::Uniform { rmax: 1 << re },
                    Some(c) => Workload::Correlated { rmax: 1 << re, corr_degree: 1 << c },
                };
                let sc = scenario::setup(
                    Dataset::Uniform,
                    &workload,
                    args.keys,
                    args.samples,
                    args.queries,
                    args.seed ^ (re as u64) << 8,
                );
                let value = match build_filter(kind, &sc.keyset, &sc.samples, &sc.eval, m_bits) {
                    Some(f) => measure_fpr(f.as_ref(), &sc.eval),
                    None => f64::NAN,
                };
                print!("  {:>6}", fpr(value));
                t.row(vec![
                    kind.name().to_string(),
                    corr_name.clone(),
                    re.to_string(),
                    format!("{value:.5}"),
                ]);
            }
            println!();
        }
    }
    t.finish(args.out.as_deref(), "fig1_heatmap");
}
