//! Figure 7: "Proteus is robust against extreme workload shifts" —
//! cumulative Seek latency and per-batch FPR as the query distribution
//! transitions linearly between large-range Uniform and small-range
//! Correlated queries, with interleaved Puts forcing compactions and
//! filter rebuilds along the way.
//!
//! Part 1: Uniform → Correlated over Normal keys.
//! Part 2: Correlated → Uniform over Uniform keys.
//!
//! With `--immediate` the same transitions switch hard at the midpoint
//! instead of mixing gradually — Figure 8, "Proteus is robust to immediate,
//! extreme workload shifts": the FPR spikes right after the switch (`ratio`
//! jumps 0 → 1) and recovers as compactions rebuild filters from the
//! updated query queue (`filters_built`).
//!
//! Run: `cargo run -p proteus-bench --release --bin fig7_shift [-- --immediate]`

use proteus_bench::cli::Args;
use proteus_bench::factories::{RosettaFactory, SurfFactory};
use proteus_bench::lsm_harness::LsmRun;
use proteus_bench::report::Table;
use proteus_lsm::{FilterFactory, ProteusFactory};
use proteus_workloads::{Dataset, QueryGen, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

pub fn factories() -> Vec<(&'static str, Arc<dyn FilterFactory>)> {
    vec![
        ("proteus", Arc::new(ProteusFactory::default())),
        ("surf", Arc::new(SurfFactory::default())),
        ("rosetta", Arc::new(RosettaFactory::default())),
    ]
}

fn main() {
    let args = Args::parse(100_000, 60_000, 2_000);
    run_transition(&args, "uniform-to-correlated", Dataset::Normal, false);
    run_transition(&args, "correlated-to-uniform", Dataset::Uniform, true);
}

/// Execute a (gradual or immediate) transition between long-Uniform and
/// short-Correlated queries. `reverse` swaps start/end.
pub fn run_transition(args: &Args, tag: &str, dataset: Dataset, reverse: bool) {
    let batches = args.get_usize("batches", 12);
    let per_batch = args.queries / batches;
    let puts_total = args.get_usize("puts", args.keys);
    let puts_per_batch = puts_total / batches;
    let value_len = args.get_usize("value-len", 128);
    let immediate = args.get("immediate").is_some();

    // §6.4: the key distribution is chosen so the start-distribution design
    // is ineffective for the end distribution.
    let initial_keys = dataset.generate(args.keys, args.seed);
    let extra_keys = dataset.generate(puts_total, args.seed ^ 0xF00D);

    let uniform = Workload::Uniform { rmax: 1 << 15 };
    let correlated = Workload::Correlated { rmax: 32, corr_degree: 1 << 10 };
    let (start_w, end_w) = if reverse { (correlated, uniform) } else { (uniform, correlated) };

    let (figure, shape) = if immediate { (8, "immediate shift") } else { (7, "transition") };
    let mut t = Table::new(
        &format!("Figure {figure} ({tag}): {shape} with {batches} batches of {per_batch} seeks"),
        &["filter", "batch", "ratio", "cumulative_s", "batch_fpr", "blocks_read", "filters_built"],
    );

    for (fname, factory) in factories() {
        let seed_q = QueryGen::new(start_w.clone(), &initial_keys, &[], args.seed ^ 0xA)
            .empty_ranges(args.samples.min(20_000));
        // Scaled-down write path: the paper's 40M Puts over 60M Seeks force
        // ~15-20 compactions per batch; shrinking the MemTable (and with it
        // the SSTs and L1) reproduces that filter-rebuild cadence at laptop
        // scale.
        let cfg = proteus_bench::lsm_harness::lsm_config(args.get_u64("lsm-bpk", 12) as f64, 8)
            .to_builder()
            .memtable_bytes(256 << 10)
            .sample_every(5)
            .build()
            .expect("fig7 config");
        let mut run = LsmRun::load_cfg(
            &format!("fig7-{tag}-{fname}"),
            cfg,
            &initial_keys,
            value_len,
            &seed_q,
            factory,
        );
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0xC0FFEE);
        let mut cumulative = 0.0f64;
        let mut put_cursor = 0usize;
        for batch in 0..batches {
            let ratio = if immediate {
                if batch * 2 >= batches {
                    1.0
                } else {
                    0.0
                }
            } else {
                batch as f64 / (batches - 1) as f64
            };
            // Interleave Puts (uniformly through the batch).
            for _ in 0..puts_per_batch {
                if put_cursor < extra_keys.len() {
                    run.put(extra_keys[put_cursor], value_len);
                    put_cursor += 1;
                }
            }
            // Current key snapshot for correlated-query generation.
            let keys_now: Vec<u64> = run.mirror.iter().copied().collect();
            let mut gen_start =
                QueryGen::new(start_w.clone(), &keys_now, &[], args.seed ^ batch as u64);
            let mut gen_end =
                QueryGen::new(end_w.clone(), &keys_now, &[], args.seed ^ (batch as u64) << 8);
            let queries: Vec<(u64, u64)> = (0..per_batch)
                .map(|_| {
                    if rng.gen::<f64>() < ratio {
                        gen_end.next_range()
                    } else {
                        gen_start.next_range()
                    }
                })
                .collect();
            let r = run.run_batch(&queries);
            cumulative += r.elapsed_s;
            println!(
                "{tag:>22} {fname:<8} batch {batch:>2} ratio {ratio:.2}: cum {cumulative:>7.2}s fpr {:.4} blocks {} filters {}",
                r.fpr(),
                r.stats.blocks_read,
                r.stats.filters_built
            );
            t.row(vec![
                fname.to_string(),
                batch.to_string(),
                format!("{ratio:.2}"),
                format!("{cumulative:.3}"),
                format!("{:.5}", r.fpr()),
                r.stats.blocks_read.to_string(),
                r.stats.filters_built.to_string(),
            ]);
        }
    }
    let csv = if immediate { "fig8_immediate" } else { "fig7_shift" };
    t.finish(args.out.as_deref(), &format!("{csv}_{tag}"));
}
