//! Figure 6: "Proteus improves end-to-end RocksDB performance on low memory
//! budgets across diverse workloads" — workload execution latency, Seek
//! FPR and block I/O in the LSM store for Proteus / SuRF / Rosetta across
//! BPK budgets and four workloads (6a).
//!
//! Run: `cargo run -p proteus-bench --release --bin fig6_lsm_e2e`

use proteus_bench::cli::Args;
use proteus_bench::factories::{DesignTally, RosettaFactory, SurfFactory};
use proteus_bench::lsm_harness::LsmRun;
use proteus_bench::report::Table;
use proteus_lsm::{FilterFactory, ProteusFactory};
use proteus_workloads::{Dataset, QueryGen, Workload};
use std::sync::Arc;

fn factories() -> Vec<(&'static str, Arc<dyn FilterFactory>)> {
    vec![
        ("proteus", Arc::new(ProteusFactory::default())),
        ("surf", Arc::new(SurfFactory::default())),
        ("rosetta", Arc::new(RosettaFactory::default())),
    ]
}

fn main() {
    let args = Args::parse(200_000, 50_000, 2_000);
    let value_len = args.get_usize("value-len", 128);

    // The four §6.3 use cases: distinct points in the design space.
    let cases: Vec<(Dataset, Workload, &str)> = vec![
        (Dataset::Uniform, Workload::Uniform { rmax: 1 << 15 }, "uniform-uniform"),
        (
            Dataset::Uniform,
            Workload::Correlated { rmax: 1 << 7, corr_degree: 1 << 10 },
            "uniform-correlated",
        ),
        (Dataset::Normal, Workload::Uniform { rmax: 1 << 15 }, "normal-uniform"),
        (
            Dataset::Normal,
            Workload::Split { uniform_rmax: 1 << 15, correlated_rmax: 32, corr_degree: 1 << 10 },
            "normal-split",
        ),
    ];

    let mut t = Table::new(
        &format!(
            "Figure 6: LSM end-to-end ({} keys, {} seeks, {}B values)",
            args.keys, args.queries, value_len
        ),
        &["case", "bpk", "filter", "latency_s", "fpr", "blocks_read", "filter_neg", "filter_bpk"],
    );

    for (dataset, workload, case) in &cases {
        let keys = dataset.generate(args.keys, args.seed);
        // Seed sample + evaluation queries from the workload.
        let seed_q = QueryGen::new(workload.clone(), &keys, &[], args.seed ^ 0xA)
            .empty_ranges(args.samples.min(20_000));
        let eval: Vec<(u64, u64)> =
            QueryGen::new(workload.clone(), &keys, &[], args.seed ^ 0xB).empty_ranges(args.queries);
        for &bpk in &args.bpk {
            for (fname, factory) in factories() {
                // Proteus files report their designs: `(l1 [fst|span], l2)`.
                let tally = (fname == "proteus")
                    .then(|| Arc::new(DesignTally::new(ProteusFactory::default())));
                let factory = tally.clone().map_or(factory, |t| t as Arc<dyn FilterFactory>);
                let run = LsmRun::load(
                    &format!("fig6-{case}-{bpk}-{fname}"),
                    bpk as f64,
                    &keys,
                    value_len,
                    &seed_q,
                    factory,
                );
                let r = run.run_batch(&eval);
                let filter_bpk = run.db.filter_bits() as f64 / run.db.sst_entries().max(1) as f64;
                println!(
                    "{case:>20} bpk={bpk:<2} {fname:<8} latency={:.2}s fpr={:.4} blocks={}",
                    r.elapsed_s,
                    r.fpr(),
                    r.stats.blocks_read
                );
                if let Some(tally) = tally {
                    println!("{:>20} designs: {}", "", tally.summary());
                }
                t.row(vec![
                    case.to_string(),
                    bpk.to_string(),
                    fname.to_string(),
                    format!("{:.3}", r.elapsed_s),
                    format!("{:.5}", r.fpr()),
                    r.stats.blocks_read.to_string(),
                    r.stats.filter_negatives.to_string(),
                    format!("{filter_bpk:.1}"),
                ]);
            }
        }
    }
    t.finish(args.out.as_deref(), "fig6_lsm_e2e");
}
