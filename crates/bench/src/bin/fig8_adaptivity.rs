//! Figure 8 (adaptivity): the self-design loop closed *online* — adaptive
//! vs frozen filters under a mid-run workload shift, with **no writes**.
//!
//! `fig7_shift --immediate` recovers after a shift only because interleaved
//! Puts keep triggering flushes/compactions that rebuild filters from the
//! updated query queue. This experiment removes that crutch: the database
//! is loaded once and then serves a read-only stream whose distribution
//! flips at the midpoint (uniform 2^15-long ranges → correlated 32-long
//! ranges). In `frozen` mode the construction-time filters decay to their
//! worst-case FPR and stay there; in `adaptive` mode each pass flags the
//! SSTs whose observed FPR is over the threshold or off their filter's
//! predicted FPR, and the background lifecycle re-trains their filters in
//! place (filter block + footer rewrite, data untouched), so the observed
//! FPR recovers toward the re-trained model's estimate.
//!
//! Both modes verify every Seek against ground truth (zero false
//! negatives), and the adaptive run ends with a reopen proving the
//! re-trained filter blocks are durable (`filters_built == 0` on the
//! recovered path).
//!
//! Run: `cargo run -p proteus-bench --release --bin fig8_adaptivity`
//! Extra flags: `--batches N` (default 12), `--lsm-bpk B` (default 12),
//! `--reverse 1` (shift the other way: correlated → uniform) and
//! `--store-defaults 1` (the store's own sampling and adaptation knobs
//! instead of this experiment's small queue and tight threshold).

use proteus_bench::cli::Args;
use proteus_bench::lsm_harness::LsmRun;
use proteus_bench::report::Table;
use proteus_lsm::ProteusFactory;
use proteus_workloads::{Dataset, QueryGen, Workload};
use std::sync::Arc;

fn main() {
    let args = Args::parse(50_000, 36_000, 2_000);
    let mut t = Table::new(
        "Figure 8 (adaptivity): FPR over time across a workload shift, no writes",
        &[
            "mode",
            "batch",
            "phase",
            "batch_fpr",
            "observed_fpr",
            "filters_retrained",
            "filters_flagged",
            "blocks_read",
        ],
    );
    let frozen_tail = run_mode(&args, false, &mut t);
    let adaptive_tail = run_mode(&args, true, &mut t);
    println!(
        "\npost-shift steady-state FPR: frozen {frozen_tail:.4} vs adaptive {adaptive_tail:.4}"
    );
    if adaptive_tail < frozen_tail {
        println!("adaptive re-training recovered the shifted workload (lower is better).");
    } else {
        println!("WARNING: adaptation did not beat frozen filters at this scale/seed.");
    }
    t.finish(args.out.as_deref(), "fig8_adaptivity");
}

/// Run one mode; returns the mean FPR of the final quarter of batches
/// (the post-shift steady state).
fn run_mode(args: &Args, adaptive: bool, t: &mut Table) -> f64 {
    let mode = if adaptive { "adaptive" } else { "frozen" };
    let batches = args.get_usize("batches", 12);
    let per_batch = (args.queries / batches).max(1);
    let value_len = args.get_usize("value-len", 128);

    let keys = Dataset::Uniform.generate(args.keys, args.seed);
    let mut start_w = Workload::Uniform { rmax: 1 << 15 };
    let mut end_w = Workload::Correlated { rmax: 32, corr_degree: 1 << 10 };
    if args.get_u64("reverse", 0) != 0 {
        std::mem::swap(&mut start_w, &mut end_w);
    }

    let base = proteus_bench::lsm_harness::lsm_config(args.get_u64("lsm-bpk", 12) as f64, 8)
        .to_builder()
        .adapt_enabled(adaptive);
    let cfg = if args.get_u64("store-defaults", 0) != 0 {
        base
    } else {
        base.sample_every(2)
            .queue_capacity(2_000) // small queue => the live sample tracks the shift
            .adapt_interval(std::time::Duration::from_millis(50))
            .adapt_min_probes(200)
            .adapt_fpr_threshold(0.01)
    }
    .build()
    .expect("fig8 config");

    let seed_q = QueryGen::new(start_w.clone(), &keys, &[], args.seed ^ 0xA)
        .empty_ranges(args.samples.min(20_000));
    let run = LsmRun::load_cfg(
        &format!("fig8-adaptivity-{mode}"),
        cfg,
        &keys,
        value_len,
        &seed_q,
        Arc::new(ProteusFactory::default()),
    );

    let mut tail_fpr = Vec::new();
    for batch in 0..batches {
        let after_switch = batch * 2 >= batches;
        let w = if after_switch { &end_w } else { &start_w };
        let queries: Vec<(u64, u64)> = {
            let mut q = QueryGen::new(w.clone(), &keys, &[], args.seed ^ (batch as u64) << 8);
            (0..per_batch).map(|_| q.next_range()).collect()
        };
        let r = run.run_batch(&queries);
        if adaptive {
            // One synchronous pass per batch on top of the background
            // worker, so the reported timeline is deterministic.
            run.db.adapt_now().expect("adaptive maintenance pass");
        }
        let s = run.db.stats();
        let phase = if after_switch { "after" } else { "before" };
        if batch * 4 >= batches * 3 {
            tail_fpr.push(r.fpr());
        }
        println!(
            "{mode:>8} batch {batch:>2} [{phase:>6}]: fpr {:.4} retrained {:>3} flagged {:>3}",
            r.fpr(),
            s.filters_retrained.get(),
            s.filters_flagged.get(),
        );
        t.row(vec![
            mode.to_string(),
            batch.to_string(),
            phase.to_string(),
            format!("{:.5}", r.fpr()),
            format!("{:.5}", r.stats.observed_fpr()),
            s.filters_retrained.get().to_string(),
            s.filters_flagged.get().to_string(),
            r.stats.blocks_read.to_string(),
        ]);
    }

    if adaptive {
        assert!(
            run.db.stats().filters_retrained.get() > 0,
            "adaptive mode must have re-trained at least one filter"
        );
        // Durability: reopen the store and show the re-trained filter
        // blocks load without any retraining.
        let reopened = run.reopen(Arc::new(ProteusFactory::default()));
        let s = reopened.db.stats().snapshot();
        assert_eq!(s.filters_degraded, 0, "re-trained filter blocks must decode");
        assert_eq!(s.filters_built, 0, "reopen must load re-trained filters, not retrain");
        println!(
            "{mode:>8} reopen: {} SSTs recovered, {} filters loaded (0 retrained on recovery)",
            s.ssts_recovered, s.filters_loaded
        );
    }
    tail_fpr.iter().sum::<f64>() / tail_fpr.len().max(1) as f64
}
