//! Figure 9: variable-length / string keys (§7.2).
//!
//! * part `fpr` (panels a–d): in-memory FPR vs BPK for Proteus (coarse
//!   128-point design search, CLHash) against the best SuRF configuration,
//!   on fixed-length string keys — Uniform-Uniform, Uniform-Correlated,
//!   Normal-Split, Normal-Correlated — with RMAX 2^30 and CORRDEGREE 2^29.
//! * part `lsm` (panel e): end-to-end latency + FPR on a synthetic `.org`
//!   domain dataset inside the LSM store.
//!
//! Run: `cargo run -p proteus-bench --release --bin fig9_strings -- --part fpr`
//!      `cargo run -p proteus-bench --release --bin fig9_strings -- --part lsm`

use proteus_amq::hash::HashFamily;
use proteus_bench::build::surf_best_under_budget;
use proteus_bench::cli::Args;
use proteus_bench::factories::SurfFactory;
use proteus_bench::lsm_harness::{fresh_dir, lsm_config};
use proteus_bench::measure::measure_fpr;
use proteus_bench::report::Table;
use proteus_core::key::pad_key;
use proteus_core::model::proteus::ProteusModelOptions;
use proteus_core::{KeySet, Proteus, ProteusOptions, RangeFilter, SampleQueries};
use proteus_lsm::{Db, FilterFactory, ProteusFactory};
use proteus_workloads::{generate_domains, StringDataset, StringQueryGen};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

fn string_proteus_options() -> ProteusOptions {
    ProteusOptions {
        hash_family: HashFamily::ClHash,
        model: ProteusModelOptions {
            // §7.2: "only modeling 128 uniformly spaced Bloom filter prefix
            // lengths for all feasible trie depths".
            max_bloom_lengths: 128,
        },
        ..Default::default()
    }
}

fn main() {
    let args = Args::parse(100_000, 10_000, 10_000);
    match args.part.as_str() {
        "fpr" => part_fpr(&args),
        "lsm" => part_lsm(&args),
        _ => {
            part_fpr(&args);
            part_lsm(&args);
        }
    }
}

fn part_fpr(args: &Args) {
    let len_bits = args.get_usize("len-bits", 200);
    let width = len_bits.div_ceil(8);
    let rmax = 1u64 << 30;
    let corr = 1u64 << 29;

    let panels: Vec<(&str, StringDataset, &str)> = vec![
        ("a", StringDataset::Uniform, "uniform"),
        ("b", StringDataset::Uniform, "correlated"),
        ("c", StringDataset::Normal, "split"),
        ("d", StringDataset::Normal, "correlated"),
    ];

    let mut t = Table::new(
        &format!("Figure 9a-d: string keys ({len_bits} bits, {} keys)", args.keys),
        &["panel", "workload", "bpk", "filter", "fpr", "l1", "l2"],
    );

    for (panel, dataset, wname) in panels {
        let keys = dataset.generate(args.keys, width, args.seed);
        let ks = KeySet::new(keys.clone(), width);
        let gen_queries = |seed: u64, n: usize| -> SampleQueries {
            let mut g = StringQueryGen::new(&keys, rmax, corr, seed);
            let qs = match wname {
                "uniform" => g.empty_queries(n, |g| g.uniform()),
                "correlated" => g.empty_queries(n, |g| g.correlated()),
                _ => g.empty_queries(n, |g| g.split()),
            };
            SampleQueries::from_bounds(
                &qs.iter().map(|(lo, hi)| (lo.clone(), hi.clone())).collect::<Vec<_>>(),
                width,
            )
        };
        let samples = gen_queries(args.seed ^ 0x5A, args.samples);
        let eval = gen_queries(args.seed ^ 0xE7, args.queries);

        for &bpk in &args.bpk {
            let m_bits = args.keys as u64 * bpk;
            let t0 = Instant::now();
            let proteus = Proteus::train(&ks, &samples, m_bits, &string_proteus_options());
            let model_s = t0.elapsed().as_secs_f64();
            let p_fpr = measure_fpr(&proteus, &eval);
            let d = proteus.design();
            println!(
                "9{panel} {wname:>10} bpk={bpk:<2} proteus fpr={p_fpr:.4} (l1={}, l2={}, model {model_s:.1}s)",
                d.trie_depth_bits, d.bloom_prefix_len
            );
            t.row(vec![
                panel.into(),
                wname.into(),
                bpk.to_string(),
                "proteus".into(),
                format!("{p_fpr:.5}"),
                d.trie_depth_bits.to_string(),
                d.bloom_prefix_len.to_string(),
            ]);
            let (s_fpr, s_cfg) = match surf_best_under_budget(&ks, &eval, m_bits) {
                Some((s, f)) => (f, s.name()),
                None => (f64::NAN, "over-budget".to_string()),
            };
            println!("9{panel} {wname:>10} bpk={bpk:<2} surf    fpr={s_fpr:.4} ({s_cfg})");
            t.row(vec![
                panel.into(),
                wname.into(),
                bpk.to_string(),
                "surf".into(),
                format!("{s_fpr:.5}"),
                "-".into(),
                "-".into(),
            ]);
        }
    }
    t.finish(args.out.as_deref(), "fig9_strings_fpr");
}

fn part_lsm(args: &Args) {
    let width = args.get_usize("width", 64);
    let n_domains = args.keys;
    let value_len = args.get_usize("value-len", 128);
    let rmax = 1u64 << 30;

    // Dataset + a disjoint pool of domains for query left bounds (§7.2).
    // Interleave the split so domain families (numbered siblings) straddle
    // keys and pool, as they do when sampling a crawl.
    let all = generate_domains(n_domains + n_domains / 4, args.seed);
    let keys: Vec<Vec<u8>> = all
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 5 != 4)
        .map(|(_, d)| pad_key(d, width))
        .take(n_domains)
        .collect();
    let pool: Vec<Vec<u8>> = all
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 5 == 4)
        .map(|(_, d)| pad_key(d, width))
        .collect();
    let mirror: BTreeSet<Vec<u8>> = keys.iter().cloned().collect();

    // Queries: [pool domain, +offset] closed ranges (§7.2's Real workload);
    // mostly empty, with family siblings making some ranges adversarially
    // close to keys.
    let queries: Vec<(Vec<u8>, Vec<u8>)> = (0..args.queries)
        .map(|i| {
            let lo = pool[i % pool.len()].clone();
            let hi = proteus_workloads::strings::add_offset(&lo, rmax);
            (lo, hi)
        })
        .collect();

    let factories: Vec<(&str, Arc<dyn FilterFactory>)> = vec![
        ("proteus", Arc::new(ProteusFactory { options: string_proteus_options() })),
        ("surf", Arc::new(SurfFactory::default())),
    ];

    let mut t = Table::new(
        &format!("Figure 9e: .org domains in the LSM store ({n_domains} keys, width {width})"),
        &["bpk", "filter", "latency_s", "fpr", "blocks_read", "filter_bpk"],
    );

    for &bpk in &args.bpk {
        for (fname, factory) in &factories {
            let dir = fresh_dir(&format!("fig9e-{bpk}-{fname}"));
            let db =
                Db::open(&dir, lsm_config(bpk as f64, width), Arc::clone(factory)).expect("open");
            // Seed the queue with empty queries drawn like the workload.
            let seed_q: Vec<(Vec<u8>, Vec<u8>)> = queries
                .iter()
                .take(args.samples.min(queries.len()))
                .filter(|(lo, hi)| {
                    mirror
                        .range::<Vec<u8>, _>((
                            std::ops::Bound::Included(lo.clone()),
                            std::ops::Bound::Included(hi.clone()),
                        ))
                        .next()
                        .is_none()
                })
                .cloned()
                .collect();
            db.seed_queries(seed_q);
            for k in &keys {
                let vhash = k.iter().fold(0u64, |a, &b| a.wrapping_mul(31).wrapping_add(b as u64));
                db.put(k, &proteus_workloads::value_for_key(vhash, value_len)).expect("put");
            }
            db.flush_and_settle().expect("settle");

            let before = db.stats().snapshot();
            let t0 = Instant::now();
            for (lo, hi) in &queries {
                let truth = mirror
                    .range::<Vec<u8>, _>((
                        std::ops::Bound::Included(lo.clone()),
                        std::ops::Bound::Included(hi.clone()),
                    ))
                    .next()
                    .is_some();
                // A closed Seek is exact: `got && !truth` is a phantom key,
                // `!got && truth` a false negative.
                let got = db.seek(lo, hi).expect("seek");
                assert_eq!(
                    got,
                    truth,
                    "Seek disagrees with the mirror on [{}, {}]",
                    String::from_utf8_lossy(lo),
                    String::from_utf8_lossy(hi)
                );
            }
            let latency = t0.elapsed().as_secs_f64();
            let delta = db.stats().snapshot().delta(&before);
            // Report the filter FPR (the paper's metric).
            let fpr = delta.filter_fpr();
            let filter_bpk = db.filter_bits() as f64 / db.sst_entries().max(1) as f64;
            println!(
                "9e bpk={bpk:<2} {fname:<8} latency={latency:.2}s fpr={fpr:.4} blocks={} fbpk={filter_bpk:.1}",
                delta.blocks_read
            );
            t.row(vec![
                bpk.to_string(),
                fname.to_string(),
                format!("{latency:.3}"),
                format!("{fpr:.5}"),
                delta.blocks_read.to_string(),
                format!("{filter_bpk:.1}"),
            ]);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    t.finish(args.out.as_deref(), "fig9_strings_lsm");
}
