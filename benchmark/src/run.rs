//! One run of one workload: set-up, a discarded warm-up round, one
//! measured round of a fixed op count per `--seconds` second,
//! close/reopen/audit, the set-up again (twice, for a median), and — in
//! the traced run — the layer replay.
//! Everything is timed from outside the program.

use crate::json::Json;
use crate::ops::{Op, Tally, GET, KINDS, PUT, SCAN, SEEK};
use crate::spec::{Metrics, END_TO_END, PER_LAYER};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{self, FinishReport, Sizes};
use proteus_lsm::StatsSnapshot;
use std::path::PathBuf;
use std::time::Instant;

/// Fewest measured rounds, however small `--seconds` is.
pub const MIN_ROUNDS: usize = 4;
/// Rounds of the traced run that record a span per op.
pub const TRACED_ROUNDS: usize = 2;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
    /// Distinguishes result files of repeated runs (`run.sh` passes the
    /// run index).
    pub tag: Option<String>,
}

/// What a run produced: the result line and the richer result file.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Metrics,
    pub file: Json,
}

impl Outcome {
    /// The contract's last line of standard output.
    pub fn result_line(&self) -> Json {
        Json::obj(vec![
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }
}

fn metrics_json(m: &Metrics) -> Json {
    Json::Obj(
        m.iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj(vec![("value", value.into()), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    )
}

/// The `q`-quantile of `values` (nearest rank), sorting them in place;
/// 0 for an empty list.
pub fn percentile(values: &mut [u32], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len()) - 1;
    *values.select_nth_unstable(rank).1 as f64
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One measured round, as kept for the report.
struct Round {
    traced: bool,
    ops: u64,
    secs: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    /// Sum of the ops' own times over the clients' wall time.
    busy_frac: f64,
    stats: StatsSnapshot,
    /// Page faults and CPU jiffies of the process over the round.
    usage: [u64; 4],
    /// Resident set when the round ended.
    rss_mb: f64,
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let sizes = Sizes::of(&args.workload, args.smoke);
    let mut w = workloads::make(&args.workload, args.seed, args.smoke)?;
    let data = sys::ScratchDir::create(args.out.join("data").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )))
    .map_err(|e| format!("creating the data directory: {e}"))?;

    let mut t = Tracer::new(args.trace);
    t.enter("run");
    let jiffies_start = sys::cpu_jiffies();
    let io_start = sys::io_written();
    let mut gen_s = 0.0;
    let mut ops_generated = 0u64;
    let mut generate = |t: &mut Tracer, w: &mut Box<dyn workloads::Workload>| -> Vec<Vec<Op>> {
        let start = Instant::now();
        let ops = t.phase("workloads.generate", |_| w.next_round());
        gen_s += start.elapsed().as_secs_f64();
        ops_generated += ops.iter().map(|c| c.len() as u64).sum::<u64>();
        ops
    };

    let static_start = Instant::now();
    t.phase("workloads.generate", |_| w.generate());
    let static_gen_s = static_start.elapsed().as_secs_f64();

    // Set-up of the store the rounds run on. It is repeated after the
    // audit, not here: what discarded set-ups leave behind in the
    // allocator differs from run to run by more than the rounds add, and
    // `peak_rss_mb` is to measure the program, not that.
    let dir = data.path().join("store-0");
    let setup = t.phase("setup", |t| w.setup(&dir, t))?;

    // Warm-up: one full round, discarded.
    let warm = generate(&mut t, &mut w);
    let mut attempted = 0u64;
    let mut failed = Tally::default();
    let out = t.phase("warmup", |t| w.run_round(&warm, false, t.epoch()));
    attempted += out.tally.lat_ns.len() as u64;
    failed.add_counts(&out.tally);
    drop(warm);

    // Measured rounds. In the traced run the 2nd and 4th record a span
    // per op; each is compared with the untraced round before it.
    let mut rounds: Vec<Round> = Vec::new();
    let mut by_kind: [Vec<u32>; KINDS] = Default::default();
    let mut scan_rows = 0u64;
    let span_names = w.span_names();
    let (sync_mode, clients) = w.policy();
    let n_rounds = (args.seconds.round() as usize).max(MIN_ROUNDS);
    let before = w.stats();
    while rounds.len() < n_rounds {
        let ops = generate(&mut t, &mut w);
        let index = rounds.len();
        let traced = args.trace && index % 2 == 1 && index / 2 < TRACED_ROUNDS;
        let round_before = w.stats();
        let usage_before = sys::proc_usage();
        t.set_round(index as i32);
        t.enter("round");
        let mut out = w.run_round(&ops, traced, t.epoch());
        t.add_ops(&out.tally.spans);
        t.exit();
        t.set_round(-1);
        let busy_ns: u64 = out.tally.lat_ns.iter().map(|&n| n as u64).sum();
        for &(name, start, end) in &out.tally.spans {
            if let Some(kind) = span_names.iter().position(|&n| n == name) {
                by_kind[kind].push((end - start) as u32);
            }
        }
        let n = out.tally.lat_ns.len() as u64;
        rounds.push(Round {
            traced,
            ops: n,
            secs: out.secs,
            p50_us: percentile(&mut out.tally.lat_ns, 0.50) / 1e3,
            p95_us: percentile(&mut out.tally.lat_ns, 0.95) / 1e3,
            p99_us: percentile(&mut out.tally.lat_ns, 0.99) / 1e3,
            busy_frac: busy_ns as f64 / (out.secs * 1e9 * clients as f64),
            stats: w.stats().delta(&round_before),
            rss_mb: sys::rss_mb(),
            usage: {
                let now = sys::proc_usage();
                std::array::from_fn(|i| now[i] - usage_before[i])
            },
        });
        attempted += n;
        scan_rows += out.tally.scan_rows;
        failed.add_counts(&out.tally);
    }
    let round_failures = failed.failed;
    let during = w.stats().delta(&before);
    let since_open = w.stats();
    let sampled_queries = w.sampled_queries();
    // Memory and bytes written are read here, before the audit: they
    // cover set-up and rounds, not the harness's own verification pass.
    let peak_rss_mb = sys::peak_rss_mb();
    let io_written = sys::io_written() - io_start;
    let user_bytes = w.user_bytes_put();
    let round_ops: u64 = rounds.iter().map(|r| r.ops).sum();

    let finish: FinishReport = t.phase("finish", |t| w.finish(t))?;
    attempted += finish.tally.checks;
    let oracle_checks = failed.checks + finish.tally.checks;
    failed.add_counts(&finish.tally);

    // The remaining set-ups, each on an empty directory and dropped again;
    // `setup_s` is the median of all of them.
    let mut setup_secs = vec![setup.secs];
    for i in 1..sizes.setups {
        let dir = data.path().join(format!("store-{i}"));
        setup_secs.push(t.phase("setup", |t| w.setup(&dir, t))?.secs);
        t.phase("teardown", |_| {
            w.teardown();
            let _ = std::fs::remove_dir_all(&dir);
        });
    }

    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let per_round = |f: fn(&Round) -> f64, set: &[&Round]| -> f64 {
        median(&set.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let ops_per_s = |r: &Round| r.ops as f64 / r.secs;

    let (window, window_ops) =
        if w.ratios_from_audit() { (finish.audit, finish.audit_ops) } else { (during, round_ops) };

    let mut metrics;
    let mut context: Vec<(&str, Json)> = Vec::new();
    if !args.trace {
        metrics = Metrics::new(END_TO_END);
        metrics.set("setup_s", median(&setup_secs));
        metrics.set("ops_per_s", per_round(ops_per_s, &untraced));
        metrics.set("p50_us", per_round(|r| r.p50_us, &untraced));
        metrics.set("filter_fpr", window.filter_fpr());
        metrics
            .set("filter_bits_per_key", ratio(finish.shape.filter_bits, finish.shape.sst_entries));
        metrics.set("blocks_read_per_op", ratio(window.blocks_read, window_ops));
        metrics.set("write_amp", ratio(io_written, user_bytes));
        metrics.set("space_amp", ratio(finish.dir_bytes, finish.live_bytes));
        metrics.set("peak_rss_mb", peak_rss_mb);
    } else {
        let replayed = t.phase("layer_replay", |t| {
            crate::replay::run(&w.replay_input(), data.path(), args.seed, t)
        })?;
        metrics = Metrics::new(PER_LAYER);
        for (name, value) in replayed.into_iter().chain(finish.extras.iter().copied()) {
            metrics.set(name, value);
        }
        metrics.set("workloads.gen_s", static_gen_s + gen_s);
        metrics.set("workloads.ops_generated", ops_generated as f64);
        metrics.set("workloads.oracle_checks", oracle_checks as f64);
        let jiffies = sys::cpu_jiffies();
        metrics.set("env.nproc", sys::nproc() as f64);
        metrics.set("env.loadavg_1m", sys::loadavg_1m());
        metrics
            .set("env.steal_frac", ratio(jiffies.0 - jiffies_start.0, jiffies.1 - jiffies_start.1));

        // Each traced round against the untraced round just before it.
        let pairs: Vec<f64> = rounds
            .windows(2)
            .filter(|p| !p[0].traced && p[1].traced)
            .map(|p| 1.0 - ops_per_s(&p[1]) / ops_per_s(&p[0]))
            .collect();
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        metrics.set("trace.overhead_frac", median(&pairs));
        metrics.set("trace.harness_self_frac", 1.0 - per_round(|r| r.busy_frac, &traced));
        // Tail latency over all op kinds: here and not end to end, because
        // in this sandbox it repeats too poorly to carry a bound.
        metrics.set("rounds.p95_us", per_round(|r| r.p95_us, &untraced));
        metrics.set("rounds.p99_us", per_round(|r| r.p99_us, &untraced));

        // Per-kind latencies of the traced rounds' spans.
        let layer = span_names[0].split('.').next().unwrap_or("lsm");
        let scan_ns: u64 = by_kind[SCAN].iter().map(|&n| n as u64).sum();
        let traced_scans = by_kind[SCAN].len() as u64;
        for (kind, name) in [(GET, "get"), (PUT, "put"), (SEEK, "seek"), (SCAN, "scan")] {
            let p50 = percentile(&mut by_kind[kind], 0.50) / 1e3;
            let p99 = percentile(&mut by_kind[kind], 0.99) / 1e3;
            metrics.set(&format!("{layer}.{name}.p50_us"), p50);
            if layer == "lsm" || kind == GET || kind == PUT {
                metrics.set(&format!("{layer}.{name}.p99_us"), p99);
            }
        }
        let scans: u64 = if layer == "lsm" { during.range_scans } else { 0 };
        metrics.set("lsm.scan.rows_per_op", ratio(scan_rows, scans));
        if layer == "lsm" && traced_scans > 0 {
            let rows_per_scan = ratio(scan_rows, scans).max(1.0);
            metrics
                .set("lsm.scan.ns_per_row", scan_ns as f64 / traced_scans as f64 / rows_per_scan);
        }
        if layer == "server" {
            metrics.set(
                "server.get_minus_ping_us",
                metrics.get("server.get.p50_us") - metrics.get("server.ping.p50_us"),
            );
            metrics.set("server.preload_kops", setup.load_kops);
            metrics.set("server.shutdown_ms", finish.close_ms);
            metrics.set("server.error_responses", round_failures as f64);
        }

        // Store counters: over the rounds for the embedded workloads, over
        // the audit of the reopened shards for the server (its shards'
        // counters are not visible from outside while it runs).
        let (c, c_ops) =
            if layer == "server" { (finish.audit, finish.audit_ops) } else { (during, round_ops) };
        let probes = c.filter_negatives + c.filter_false_positives + c.filter_true_positives;
        metrics.set("lsm.filter.probes_per_op", ratio(probes, c_ops));
        metrics.set("lsm.filter.negatives_per_op", ratio(c.filter_negatives, c_ops));
        metrics.set("lsm.filter.false_positives_per_op", ratio(c.filter_false_positives, c_ops));
        metrics.set("lsm.filter.true_positives_per_op", ratio(c.filter_true_positives, c_ops));
        metrics.set("lsm.seeks_filtered_frac", ratio(c.seeks_filtered, c.seeks));
        metrics.set("lsm.seeks_memtable_frac", ratio(c.seeks_memtable, c.seeks));
        metrics.set("lsm.cache.hit_rate", ratio(c.cache_hits, c.cache_hits + c.blocks_read));
        metrics.set("lsm.cache.hits_per_op", ratio(c.cache_hits, c_ops));
        metrics.set("lsm.bytes_read_per_op", ratio(c.bytes_read, c_ops));
        metrics.set("lsm.blocks_read", c.blocks_read as f64);

        // Background work and the WAL: since the kept store was opened,
        // so the load's flushes, compactions and filter builds count.
        let s = since_open;
        metrics.set("lsm.flushes", s.flushes as f64);
        metrics.set("lsm.compactions", s.compactions as f64);
        metrics.set("lsm.memtable_rotations", s.memtable_rotations as f64);
        metrics.set("lsm.write_stall_ms", s.write_stall_ns as f64 / 1e6);
        metrics.set("lsm.filters_built", s.filters_built as f64);
        metrics.set("lsm.filter_build_ms", s.filter_build_ns as f64 / 1e6);
        metrics
            .set("lsm.filter_build_ms_per_filter", ratio(s.filter_build_ns, s.filters_built) / 1e6);
        metrics.set("lsm.sample_offers", s.sample_offers as f64);
        metrics.set("lsm.sampled_queries", sampled_queries as f64);
        metrics.set("lsm.wal.appends", s.wal_appends as f64);
        metrics.set("lsm.wal.bytes_per_user_byte", ratio(s.wal_bytes, user_bytes));
        metrics.set("lsm.wal.syncs", s.wal_syncs as f64);
        metrics.set("lsm.wal.mean_group_commit", s.mean_group_commit());

        metrics.set("lsm.sst_count", finish.shape.sst_count as f64);
        metrics.set("lsm.l0_files", finish.shape.l0_files as f64);
        metrics.set("lsm.levels", finish.shape.levels as f64);
        metrics.set("lsm.sst_bytes", finish.shape.sst_bytes as f64);
        metrics.set("lsm.sst_entries", finish.shape.sst_entries as f64);
        metrics.set("lsm.tombstones", finish.shape.tombstones as f64);
        metrics.set("lsm.load_kops", setup.load_kops);
        metrics.set("lsm.settle_s", setup.settle_s);
        metrics.set("lsm.reopen_ms", finish.reopen_ms);
        metrics.set("lsm.ssts_recovered", finish.recovered.ssts_recovered as f64);
        metrics.set("lsm.filters_loaded", finish.recovered.filters_loaded as f64);
        metrics.set("lsm.filter_load_ms", finish.recovered.filter_load_ns as f64 / 1e6);
        metrics.set("lsm.wal_replayed_records", finish.recovered.wal_replayed_records as f64);
    }
    t.exit();
    if args.trace {
        metrics.set("trace.spans", t.spans().len() as f64);
        let path = args.out.join(format!("{}.trace.jsonl", args.workload));
        t.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        context.push(("trace_file", Json::str(path.display().to_string())));
        context.push(("root_span_coverage", t.root_coverage().into()));
    }

    // Counts should repeat from round to round; keep each round so the
    // spread can be read from the file.
    let round_rows: Vec<Json> = rounds
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("traced", r.traced.into()),
                ("ops", r.ops.into()),
                ("secs", r.secs.into()),
                ("ops_per_s", ops_per_s(r).into()),
                ("p50_us", r.p50_us.into()),
                ("p95_us", r.p95_us.into()),
                ("p99_us", r.p99_us.into()),
                ("filter_fpr", r.stats.filter_fpr().into()),
                ("blocks_read_per_op", ratio(r.stats.blocks_read, r.ops).into()),
                ("flushes", r.stats.flushes.into()),
                ("compactions", r.stats.compactions.into()),
                ("rss_mb", r.rss_mb.into()),
                ("minor_faults", r.usage[0].into()),
                ("major_faults", r.usage[1].into()),
                ("user_jiffies", r.usage[2].into()),
                ("system_jiffies", r.usage[3].into()),
            ])
        })
        .collect();

    let correct = failed.failed == 0;
    let mut file = vec![
        ("workload", Json::str(&args.workload)),
        ("seed", args.seed.into()),
        ("trace", args.trace.into()),
        ("smoke", args.smoke.into()),
        ("seconds", args.seconds.into()),
        ("git_sha", Json::str(sys::git_sha())),
        ("rustc", Json::str(sys::rustc_version())),
        ("nproc", sys::nproc().into()),
        ("loadavg_1m", sys::loadavg_1m().into()),
        ("sync_mode", Json::str(sync_mode)),
        ("clients", (clients as u64).into()),
        ("loop", Json::str("closed")),
        ("keys", (sizes.keys as u64).into()),
        ("ops_per_round", (sizes.round_ops as u64).into()),
        ("setup_repeats", (sizes.setups as u64).into()),
        ("setup_secs", Json::Arr(setup_secs.iter().map(|&s| s.into()).collect())),
        ("rounds", Json::Arr(round_rows)),
        (
            "ratio_window",
            Json::str(if w.ratios_from_audit() {
                "audit of the reopened store"
            } else {
                "measured rounds"
            }),
        ),
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.failed.into()),
        ("failures", Json::Arr(failed.failures.iter().map(Json::str).collect())),
        ("metrics", metrics_json(&metrics)),
    ];
    file.extend(context);
    Ok(Outcome {
        correct,
        attempted,
        failed: failed.failed,
        failures: failed.failures,
        metrics,
        file: Json::obj(file),
    })
}
