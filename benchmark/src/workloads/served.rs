//! `server_mixed`: the TCP front-end driven by two closed-loop clients.

use super::{
    key_of, reopen, split_shape, FinishReport, ReplayInput, RoundOut, SetupReport, Shape, Sizes,
    Workload, SERVER_CLIENTS, SERVER_SCAN_ROWS, SERVER_SHARDS, THETA,
};
use crate::ops::{issue, Key, Op, Tally, KINDS, VALUE_LEN};
use crate::sys::dir_bytes;
use crate::trace::Tracer;
use proteus_lsm::{ProteusFactory, StatsSnapshot, SyncMode};
use proteus_server::{Client, Router, Server, ShardStats};
use proteus_workloads::{Dataset, QueryGen, Zipfian};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The flush policy of `server_mixed`.
const SYNC: SyncMode = SyncMode::Interval(Duration::from_millis(2));
/// PINGs each client times before shutdown, to price a round trip with
/// no store work.
const PINGS: usize = 2_000;

/// GET / PUT / SEEK / SCAN over a fixed key set. Client `c` owns the keys
/// whose index is `c` modulo the client count: only the owner writes a
/// key, so each client knows the version its own keys must carry while
/// the two run concurrently; a value read from the other client's key is
/// checked for integrity only.
pub struct ServerMixed {
    seed: u64,
    sizes: Sizes,
    keys: Vec<u64>,
    table: Vec<Key>,
    versions: Vec<u32>,
    samples: Vec<(u64, u64)>,
    audit_seeks: Vec<(u64, u64)>,
    zipf: Option<Zipfian>,
    rng: StdRng,
    round: u64,
    server: Option<Server>,
    clients: Vec<Client>,
    dir: PathBuf,
    put_bytes: u64,
    connect_us: f64,
}

impl ServerMixed {
    pub fn new(seed: u64, sizes: Sizes) -> Self {
        ServerMixed {
            seed,
            sizes,
            keys: Vec::new(),
            table: Vec::new(),
            versions: Vec::new(),
            samples: Vec::new(),
            audit_seeks: Vec::new(),
            zipf: None,
            rng: StdRng::seed_from_u64(seed ^ 0x5E4F),
            round: 0,
            server: None,
            clients: Vec::new(),
            dir: PathBuf::new(),
            put_bytes: 0,
            connect_us: 0.0,
        }
    }

    /// Run one op list per client, each on its own thread and connection,
    /// released together; the round ends when the slower client is done.
    fn run_clients(&mut self, ops: &[Vec<Op>], traced: bool, epoch: Instant) -> RoundOut {
        let gate = Arc::new(Barrier::new(ops.len() + 1));
        let table = &self.table;
        let (secs, tallies) = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .clients
                .iter_mut()
                .zip(ops)
                .map(|(client, ops)| {
                    let gate = Arc::clone(&gate);
                    scope.spawn(move || {
                        gate.wait();
                        issue(client, ops, table, traced, epoch)
                    })
                })
                .collect();
            gate.wait();
            let start = Instant::now();
            let tallies: Vec<Tally> =
                workers.into_iter().map(|w| w.join().expect("a client thread panicked")).collect();
            (start.elapsed().as_secs_f64(), tallies)
        });
        let mut tally = Tally::default();
        tallies.into_iter().for_each(|t| tally.merge(t));
        RoundOut { secs, tally }
    }
}

impl Workload for ServerMixed {
    fn generate(&mut self) {
        self.keys = Dataset::Uniform.generate(self.sizes.keys, self.seed);
        self.table = self.keys.iter().map(|&k| key_of(k)).collect();
        self.samples = QueryGen::new(split_shape(), &self.keys, &[], self.seed ^ 0x5A3B)
            .empty_ranges(self.sizes.samples);
        self.zipf = Some(Zipfian::scrambled(self.keys.len() as u64, THETA));
    }

    /// Start the server on a free loopback port, connect, and preload
    /// every key over the two connections (each client its own keys).
    fn setup(&mut self, dir: &Path, t: &mut Tracer) -> Result<SetupReport, String> {
        let start = Instant::now();
        self.versions = vec![0; self.keys.len()];
        let server = t
            .phase("server.start", |_| {
                Server::start(
                    dir,
                    ("127.0.0.1", 0),
                    SERVER_SHARDS,
                    super::store_config(SYNC),
                    Arc::new(ProteusFactory::default()),
                )
            })
            .map_err(|e| format!("starting the server: {e}"))?;
        let connect_start = Instant::now();
        self.clients = (0..SERVER_CLIENTS)
            .map(|_| Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}")))
            .collect::<Result<_, _>>()?;
        self.connect_us = connect_start.elapsed().as_secs_f64() * 1e6 / SERVER_CLIENTS as f64;
        let load_start = Instant::now();
        let preload: Vec<Vec<Op>> = (0..SERVER_CLIENTS)
            .map(|c| {
                (c..self.table.len())
                    .step_by(SERVER_CLIENTS)
                    .map(|i| Op::Put { key: self.table[i].clone(), version: 0 })
                    .collect()
            })
            .collect();
        let out = t.phase("server.preload", |t| self.run_clients(&preload, false, t.epoch()));
        if out.tally.failed > 0 {
            return Err(format!("preload failed: {:?}", out.tally.failures));
        }
        self.put_bytes += (self.table.len() * (8 + VALUE_LEN)) as u64;
        self.server = Some(server);
        self.dir = dir.to_path_buf();
        Ok(SetupReport {
            secs: start.elapsed().as_secs_f64(),
            load_kops: self.table.len() as f64 / load_start.elapsed().as_secs_f64() / 1e3,
            settle_s: 0.0,
        })
    }

    fn teardown(&mut self) {
        self.clients.clear();
        self.server = None;
    }

    fn span_names(&self) -> [&'static str; KINDS] {
        <Client as crate::ops::Target>::NAMES
    }

    fn policy(&self) -> (&'static str, usize) {
        ("Interval(2ms)", SERVER_CLIENTS)
    }

    /// Per client: 70 % GET, 20 % PUT of an own key, 5 % certified-empty
    /// SEEK, 5 % SCAN of 16 rows; keys chosen scrambled-zipfian.
    fn next_round(&mut self) -> Vec<Vec<Op>> {
        self.round += 1;
        let per_client = self.sizes.round_ops / SERVER_CLIENTS;
        let mut seeks =
            QueryGen::new(split_shape(), &self.keys, &[], self.seed.wrapping_add(self.round << 20))
                .empty_ranges(self.sizes.round_ops / 10)
                .into_iter();
        let n = self.table.len();
        let mut rounds = Vec::with_capacity(SERVER_CLIENTS);
        for c in 0..SERVER_CLIENTS {
            let mut ops = Vec::with_capacity(per_client);
            for _ in 0..per_client {
                let zipf = self.zipf.as_ref().expect("generate ran");
                let i = zipf.next(&mut self.rng) as usize;
                let own = i - i % SERVER_CLIENTS + c;
                let own = if own < n { own } else { c };
                ops.push(match self.rng.gen_range(0..100u32) {
                    0..=69 => {
                        let known = (i % SERVER_CLIENTS == c).then_some(self.versions[i]);
                        Op::Get { key: self.table[i].clone(), expect: Some(known) }
                    }
                    70..=89 => {
                        self.versions[own] += 1;
                        self.put_bytes += (8 + VALUE_LEN) as u64;
                        Op::Put { key: self.table[own].clone(), version: self.versions[own] }
                    }
                    90..=94 => {
                        let (lo, hi) = seeks.next().expect("enough seeks were generated");
                        Op::Seek { lo: key_of(lo), hi: key_of(hi), expect: false }
                    }
                    _ => {
                        let last = (i + SERVER_SCAN_ROWS as usize - 1).min(n - 1);
                        Op::Scan {
                            lo: self.table[i].clone(),
                            hi: Some(self.table[last].clone()),
                            limit: SERVER_SCAN_ROWS,
                            first: i as u32,
                            rows: (last - i + 1) as u32,
                        }
                    }
                });
            }
            rounds.push(ops);
        }
        rounds
    }

    fn run_round(&mut self, ops: &[Vec<Op>], traced: bool, epoch: Instant) -> RoundOut {
        self.run_clients(ops, traced, epoch)
    }

    /// The shards live inside the server; the harness sees their counters
    /// only after shutdown, through the reopened directories.
    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::default()
    }

    fn user_bytes_put(&self) -> u64 {
        self.put_bytes
    }

    fn ratios_from_audit(&self) -> bool {
        true
    }

    /// Price a bare round trip, shut down gracefully, then reopen each
    /// shard directory directly and replay every oracle key and a fresh
    /// set of certified-empty Seeks against it.
    fn finish(&mut self, t: &mut Tracer) -> Result<FinishReport, String> {
        let mut extras: Vec<(&'static str, f64)> = vec![("server.connect_us", self.connect_us)];
        // Both clients ping at once, so a PING meets the same busy cores
        // and awake server threads a GET of the rounds met.
        let (mut pings, ping_errors) = t.phase("server.ping", |_| {
            std::thread::scope(|scope| {
                let workers: Vec<_> = self
                    .clients
                    .iter_mut()
                    .map(|client| {
                        scope.spawn(move || {
                            let mut lat = Vec::with_capacity(PINGS);
                            let mut errors = 0u64;
                            for _ in 0..PINGS {
                                let start = Instant::now();
                                errors += client.ping().is_err() as u64;
                                lat.push(start.elapsed().as_nanos() as u32);
                            }
                            (lat, errors)
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().expect("a ping thread panicked")).fold(
                    (Vec::new(), 0u64),
                    |(mut all, errors), (lat, e)| {
                        all.extend(lat);
                        (all, errors + e)
                    },
                )
            })
        });
        extras.push(("server.ping.p50_us", crate::run::percentile(&mut pings, 0.50) / 1e3));
        let shards: Vec<ShardStats> =
            self.clients.first_mut().and_then(|c| c.stats().ok()).unwrap_or_default();
        let traffic: Vec<u64> =
            shards.iter().map(|s| s.gets + s.commits + s.seeks + s.range_scans).collect();
        let busiest = traffic.iter().copied().max().unwrap_or(0).max(1);
        extras.push((
            "server.shard_balance",
            traffic.iter().copied().min().unwrap_or(0) as f64 / busiest as f64,
        ));

        let close_start = Instant::now();
        t.phase("server.shutdown", |_| {
            self.clients.clear();
            if let Some(mut server) = self.server.take() {
                server.shutdown();
            }
        });
        let close_ms = close_start.elapsed().as_secs_f64() * 1e3;

        let router = Router::new(SERVER_SHARDS);
        let mut audits: Vec<Vec<Op>> = vec![Vec::new(); SERVER_SHARDS];
        for (key, &version) in self.table.iter().zip(&self.versions) {
            audits[router.shard_of(key)]
                .push(Op::Get { key: key.clone(), expect: Some(Some(version)) });
        }
        self.audit_seeks = QueryGen::new(split_shape(), &self.keys, &[], self.seed ^ 0xA0D1)
            .empty_ranges(self.sizes.audit_seeks);
        for &(lo, hi) in &self.audit_seeks {
            let (lo, hi) = (key_of(lo), key_of(hi));
            for shard in router.shards_for_range(&lo, &hi) {
                audits[shard].push(Op::Seek { lo: lo.clone(), hi: hi.clone(), expect: false });
            }
        }
        let mut report = FinishReport { close_ms, ..FinishReport::default() };
        report.tally.failed += ping_errors;
        let mut shape = Shape::default();
        for (shard, audit) in audits.iter().enumerate() {
            let dir = self.dir.join(format!("shard-{shard:04}"));
            let (db, reopen_ms) = t.phase("reopen", |_| reopen(&dir, SYNC))?;
            report.reopen_ms += reopen_ms;
            report.recovered = sum(&report.recovered, &db.stats().snapshot());
            // How many SSTs a shard had flushed when the server stopped,
            // and with how full a sample queue, depends on timing. Seed
            // the queue as the embedded set-ups do and settle first, so
            // the audit probes one store shape run after run.
            db.seed_queries(self.samples.iter().map(|&(lo, hi)| (key_of(lo), key_of(hi))));
            t.phase("lsm.flush_and_settle", |_| db.flush_and_settle())
                .map_err(|e| format!("final settle of shard {shard}: {e}"))?;
            let settled = db.stats().snapshot();
            let tally = t.phase("verify", |t| issue(&mut &db, audit, &[], false, t.epoch()));
            report.tally.merge(tally);
            report.audit = sum(&report.audit, &db.stats().snapshot().delta(&settled));
            report.audit_ops += audit.len() as u64;
            shape.add(&db);
        }
        report.shape = shape;
        report.dir_bytes = dir_bytes(&self.dir);
        report.live_bytes = (self.table.len() * (8 + VALUE_LEN)) as u64;
        report.extras = extras;
        Ok(report)
    }

    fn replay_input(&self) -> ReplayInput {
        ReplayInput {
            keys: self.table.clone(),
            seeks: self.audit_seeks.iter().map(|&(lo, hi)| (key_of(lo), key_of(hi))).collect(),
        }
    }
}

/// Counter-wise sum of the counters the report reads from an audit or a
/// recovery (`StatsSnapshot` offers a difference but no sum).
fn sum(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    let mut out = *a;
    out.seeks += b.seeks;
    out.gets += b.gets;
    out.range_scans += b.range_scans;
    out.seeks_filtered += b.seeks_filtered;
    out.seeks_memtable += b.seeks_memtable;
    out.filter_negatives += b.filter_negatives;
    out.filter_false_positives += b.filter_false_positives;
    out.filter_true_positives += b.filter_true_positives;
    out.blocks_read += b.blocks_read;
    out.bytes_read += b.bytes_read;
    out.cache_hits += b.cache_hits;
    out.ssts_recovered += b.ssts_recovered;
    out.filters_loaded += b.filters_loaded;
    out.filter_load_ns += b.filter_load_ns;
    out.wal_replayed_records += b.wal_replayed_records;
    out
}
