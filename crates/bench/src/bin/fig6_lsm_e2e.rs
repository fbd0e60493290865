//! Figure 6: "Proteus improves end-to-end RocksDB performance on low memory
//! budgets across diverse workloads" — workload execution latency, Seek
//! FPR and block I/O in the LSM store for Proteus / SuRF / Rosetta across
//! BPK budgets and four workloads (6a). Part 6c adds what only this
//! binary measures: the same Seek workload fanned across N reader threads
//! on one embedded `Db`.
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

    // 6c runs on the first case at the middle budget.
    let keys = cases[0].0.generate(args.keys, args.seed);
    let seed_q = QueryGen::new(cases[0].1.clone(), &keys, &[], args.seed ^ 0xA)
        .empty_ranges(args.samples.min(20_000));
    let bpk = args.bpk[args.bpk.len() / 2] as f64;

    // Concurrent-read scaling (`--threads N` sets the max thread count):
    // the same Seek workload fanned across reader threads against one
    // shared Db. Reads are lock-free against the manifest snapshot, so
    // aggregate throughput should scale until the hardware runs out.
    let max_threads = args
        .get_usize("threads", std::thread::available_parallelism().map_or(4, |n| n.get()).min(8))
        .max(1);
    let mut c = Table::new(
        &format!("Figure 6c: concurrent Seek throughput scaling (up to {max_threads} threads)"),
        &["filter", "threads", "latency_s", "kops_s", "speedup", "fpr", "e2e_fps"],
    );
    let eval: Vec<(u64, u64)> =
        QueryGen::new(cases[0].1.clone(), &keys, &[], args.seed ^ 0xC).empty_ranges(args.queries);
    for (fname, factory) in factories() {
        let run =
            LsmRun::load(&format!("fig6-threads-{fname}"), bpk, &keys, value_len, &seed_q, factory);
        // Warm the block cache and force every lazy filter decode before
        // measuring (§6.2 warms caches), so the speedup column isolates
        // thread scaling instead of mixing in first-pass cache misses.
        let _ = run.run_batch(&eval);
        let mut base_ops = 0.0f64;
        let mut threads = 1;
        while threads <= max_threads {
            let r = run.run_batch_threads(&eval, threads);
            if threads == 1 {
                base_ops = r.ops_per_sec();
            }
            let speedup = r.ops_per_sec() / base_ops.max(1e-9);
            println!(
                "{fname:<8} threads={threads:<2} latency={:.3}s {:>8.1} kops/s speedup={speedup:.2}x",
                r.elapsed_s,
                r.ops_per_sec() / 1e3,
            );
            c.row(vec![
                fname.to_string(),
                threads.to_string(),
                format!("{:.3}", r.elapsed_s),
                format!("{:.1}", r.ops_per_sec() / 1e3),
                format!("{speedup:.2}"),
                format!("{:.5}", r.stats.filter_fpr()),
                r.fps.to_string(),
            ]);
            threads *= 2;
        }
    }
    c.finish(args.out.as_deref(), "fig6c_thread_scaling");
}
