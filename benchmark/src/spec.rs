//! The metric lists: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` repeats these lists (with direction and bound); the
//! smoke test fails if the two ever differ.

/// Reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("filter_fpr", "ratio"),
    ("filter_bits_per_key", "bits/key"),
    ("blocks_read_per_op", "count"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Reported by every workload with `--trace 1`. A value is 0 where the
/// workload does not exercise the layer (no scans in `seek_empty`, no
/// server in the embedded workloads).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_s", "s"),
    ("workloads.ops_generated", "count"),
    ("workloads.oracle_checks", "count"),
    ("env.nproc", "count"),
    ("env.loadavg_1m", "count"),
    ("env.steal_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.harness_self_frac", "ratio"),
    ("rounds.p95_us", "us"),
    ("rounds.p99_us", "us"),
    ("succinct.rank1_ns", "ns"),
    ("succinct.select1_ns", "ns"),
    ("succinct.fst_lookup_ns", "ns"),
    ("amq.bloom_insert_ns", "ns"),
    ("amq.bloom_contains_ns", "ns"),
    ("core.keyset_build_ns_per_key", "ns"),
    ("core.model_build_ms", "ms"),
    ("core.design_search_ms", "ms"),
    ("core.filter_build_ns_per_key", "ns"),
    ("core.probe_ns", "ns"),
    ("core.fpr", "ratio"),
    ("core.model_fpr_abs_err", "ratio"),
    ("core.bits_per_key", "bits/key"),
    ("core.design.trie_depth_bits", "bits"),
    ("core.design.bloom_prefix_len", "bits"),
    ("filters.surf.build_ns_per_key", "ns"),
    ("filters.surf.probe_ns", "ns"),
    ("filters.surf.fpr", "ratio"),
    ("filters.surf.bits_per_key", "bits/key"),
    ("filters.rosetta.build_ns_per_key", "ns"),
    ("filters.rosetta.probe_ns", "ns"),
    ("filters.rosetta.fpr", "ratio"),
    ("filters.rosetta.bits_per_key", "bits/key"),
    ("filters.codec.encode_ns_per_key", "ns"),
    ("filters.codec.decode_ns_per_key", "ns"),
    ("lsm.seek.p50_us", "us"),
    ("lsm.seek.p99_us", "us"),
    ("lsm.get.p50_us", "us"),
    ("lsm.get.p99_us", "us"),
    ("lsm.put.p50_us", "us"),
    ("lsm.put.p99_us", "us"),
    ("lsm.scan.p50_us", "us"),
    ("lsm.scan.p99_us", "us"),
    ("lsm.scan.ns_per_row", "ns"),
    ("lsm.scan.rows_per_op", "count"),
    ("lsm.filter.probes_per_op", "count"),
    ("lsm.filter.negatives_per_op", "count"),
    ("lsm.filter.false_positives_per_op", "count"),
    ("lsm.filter.true_positives_per_op", "count"),
    ("lsm.seeks_filtered_frac", "ratio"),
    ("lsm.seeks_memtable_frac", "ratio"),
    ("lsm.cache.hit_rate", "ratio"),
    ("lsm.cache.hits_per_op", "count"),
    ("lsm.bytes_read_per_op", "B"),
    ("lsm.blocks_read", "count"),
    ("lsm.flushes", "count"),
    ("lsm.compactions", "count"),
    ("lsm.memtable_rotations", "count"),
    ("lsm.write_stall_ms", "ms"),
    ("lsm.filters_built", "count"),
    ("lsm.filter_build_ms", "ms"),
    ("lsm.filter_build_ms_per_filter", "ms"),
    ("lsm.sample_offers", "count"),
    ("lsm.sampled_queries", "count"),
    ("lsm.wal.appends", "count"),
    ("lsm.wal.bytes_per_user_byte", "ratio"),
    ("lsm.wal.syncs", "count"),
    ("lsm.wal.mean_group_commit", "count"),
    ("lsm.wal.append_ns", "ns"),
    ("lsm.sst_count", "count"),
    ("lsm.l0_files", "count"),
    ("lsm.levels", "count"),
    ("lsm.sst_bytes", "B"),
    ("lsm.sst_entries", "count"),
    ("lsm.tombstones", "count"),
    ("lsm.load_kops", "1/ms"),
    ("lsm.settle_s", "s"),
    ("lsm.reopen_ms", "ms"),
    ("lsm.ssts_recovered", "count"),
    ("lsm.filters_loaded", "count"),
    ("lsm.filter_load_ms", "ms"),
    ("lsm.wal_replayed_records", "count"),
    ("lsm.memtable.insert_ns", "ns"),
    ("lsm.memtable.get_ns", "ns"),
    ("lsm.memtable.range_entries_ns_per_entry", "ns"),
    ("lsm.block.build_ns_per_entry", "ns"),
    ("lsm.block.scan_ns_per_entry", "ns"),
    ("server.get.p50_us", "us"),
    ("server.get.p99_us", "us"),
    ("server.put.p50_us", "us"),
    ("server.put.p99_us", "us"),
    ("server.ping.p50_us", "us"),
    ("server.seek.p50_us", "us"),
    ("server.scan.p50_us", "us"),
    ("server.get_minus_ping_us", "us"),
    ("server.protocol.encode_ns", "ns"),
    ("server.protocol.decode_ns", "ns"),
    ("server.router.shard_of_ns", "ns"),
    ("server.shard_balance", "ratio"),
    ("server.connect_us", "us"),
    ("server.preload_kops", "1/ms"),
    ("server.shutdown_ms", "ms"),
    ("server.error_responses", "count"),
];

/// Values under the names of one list; every name starts at 0 and a
/// value may only be set under a listed name, so a misspelt metric is a
/// panic in the smoke test, not a silently missing number.
pub struct Metrics {
    list: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(list: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics { list, values: vec![0.0; list.len()] }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .list
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a listed metric"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.values[i] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.list.iter().position(|(n, _)| *n == name).map_or(0.0, |i| self.values[i])
    }

    /// `(name, value, unit)` in list order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.list.iter().zip(&self.values).map(|(&(name, unit), &v)| (name, v, unit))
    }
}
