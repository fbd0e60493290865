//! The three workloads that drive a `Db` from one thread.

use super::{
    key_of, load, open_store, reopen, run_embedded, split_shape, FinishReport, ReplayInput,
    RoundOut, SetupReport, Shape, Sizes, Workload, MAX_SCAN_ROWS, OVERLAY_EVERY, THETA,
};
use crate::ops::{issue, Key, Op, VALUE_LEN};
use crate::sys::dir_bytes;
use crate::trace::Tracer;
use proteus_lsm::{Db, StatsSnapshot, SyncMode};
use proteus_workloads::{generate_urls, Dataset, QueryGen, StringQueryGen, Zipfian};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The flush policy of all three embedded workloads.
const SYNC: SyncMode = SyncMode::Off;

/// A seeded permutation of `0..n`: keys are loaded in this order, as an
/// application would write them, not in the sorted order they were
/// generated in (sorted loads never overlap in L0 and skip compaction).
fn shuffled(n: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

fn seed_samples(db: &Db, samples: &[(u64, u64)]) {
    db.seed_queries(samples.iter().map(|&(lo, hi)| (key_of(lo), key_of(hi))));
}

fn seek_op(lo: u64, hi: u64) -> Op {
    Op::Seek { lo: key_of(lo), hi: key_of(hi), expect: false }
}

/// The open store and where it lives.
#[derive(Default)]
struct Store {
    db: Option<Db>,
    dir: PathBuf,
    /// Key + value bytes put over every set-up and round.
    put_bytes: u64,
}

impl Store {
    fn db(&self) -> &Db {
        self.db.as_ref().expect("set-up ran before the store is used")
    }

    /// Open, optionally seed the sample queue, load `keys`, settle.
    fn build(
        &mut self,
        dir: &Path,
        samples: &[(u64, u64)],
        keys: impl Iterator<Item = Key>,
        t: &mut Tracer,
    ) -> Result<SetupReport, String> {
        let start = Instant::now();
        let db = t.phase("lsm.open", |_| open_store(dir, SYNC))?;
        seed_samples(&db, samples);
        let load_start = Instant::now();
        let (loaded, bytes) = t.phase("lsm.load", |_| load(&db, keys))?;
        self.put_bytes += bytes;
        let load_s = load_start.elapsed().as_secs_f64();
        let settle_start = Instant::now();
        t.phase("lsm.flush_and_settle", |_| db.flush_and_settle())
            .map_err(|e| format!("settle: {e}"))?;
        let settle_s = settle_start.elapsed().as_secs_f64();
        self.db = Some(db);
        self.dir = dir.to_path_buf();
        Ok(SetupReport {
            secs: start.elapsed().as_secs_f64(),
            load_kops: loaded as f64 / load_s.max(1e-9) / 1e3,
            settle_s,
        })
    }

    /// Close (gracefully, or as a crash), reopen, run the audit ops,
    /// settle and measure the directory.
    fn close_reopen_audit(
        &mut self,
        crash: bool,
        audit: &[Op],
        table: &[Key],
        live_keys: u64,
        live_key_bytes: u64,
        t: &mut Tracer,
    ) -> Result<FinishReport, String> {
        let db = self.db.take().expect("finish runs once, after set-up");
        let close_start = Instant::now();
        t.phase("lsm.close", |_| if crash { db.crash() } else { drop(db) });
        let close_ms = close_start.elapsed().as_secs_f64() * 1e3;
        let (db, reopen_ms) = t.phase("reopen", |_| reopen(&self.dir, SYNC))?;
        let recovered = db.stats().snapshot();
        let tally = t.phase("verify", |t| issue(&mut &db, audit, table, false, t.epoch()));
        let audit_delta = db.stats().snapshot().delta(&recovered);
        t.phase("lsm.flush_and_settle", |_| db.flush_and_settle())
            .map_err(|e| format!("final settle: {e}"))?;
        let mut shape = Shape::default();
        shape.add(&db);
        let report = FinishReport {
            tally,
            close_ms,
            reopen_ms,
            recovered,
            audit: audit_delta,
            audit_ops: audit.len() as u64,
            shape,
            dir_bytes: dir_bytes(&self.dir),
            live_bytes: live_key_bytes + live_keys * VALUE_LEN as u64,
            extras: Vec::new(),
        };
        drop(db);
        Ok(report)
    }
}

// ------------------------------------------------------------ seek_empty

/// Certified-empty range Seeks over a data set several times the block
/// cache: the paper's Fig. 6 cell.
pub struct SeekEmpty {
    seed: u64,
    sizes: Sizes,
    keys: Vec<u64>,
    order: Vec<u32>,
    samples: Vec<(u64, u64)>,
    first_round: Vec<(u64, u64)>,
    store: Store,
    round: u64,
}

impl SeekEmpty {
    pub fn new(seed: u64, sizes: Sizes) -> Self {
        SeekEmpty {
            seed,
            sizes,
            keys: Vec::new(),
            order: Vec::new(),
            samples: Vec::new(),
            first_round: Vec::new(),
            store: Store::default(),
            round: 0,
        }
    }
}

impl Workload for SeekEmpty {
    fn generate(&mut self) {
        self.keys = Dataset::Uniform.generate(self.sizes.keys, self.seed);
        self.order = shuffled(self.keys.len(), self.seed ^ 0x5AFE);
        self.samples = QueryGen::new(split_shape(), &self.keys, &[], self.seed ^ 0x5A3B)
            .empty_ranges(self.sizes.samples);
    }

    fn setup(&mut self, dir: &Path, t: &mut Tracer) -> Result<SetupReport, String> {
        let keys = self.order.iter().map(|&i| key_of(self.keys[i as usize]));
        self.store.build(dir, &self.samples, keys, t)
    }

    fn teardown(&mut self) {
        self.store.db = None;
    }

    fn next_round(&mut self) -> Vec<Vec<Op>> {
        self.round += 1;
        let ranges =
            QueryGen::new(split_shape(), &self.keys, &[], self.seed.wrapping_add(self.round << 20))
                .empty_ranges(self.sizes.round_ops);
        if self.first_round.is_empty() {
            self.first_round = ranges.clone();
        }
        vec![ranges.into_iter().map(|(lo, hi)| seek_op(lo, hi)).collect()]
    }

    fn run_round(&mut self, ops: &[Vec<Op>], traced: bool, epoch: Instant) -> RoundOut {
        run_embedded(self.store.db(), &ops[0], &[], traced, epoch)
    }

    fn stats(&self) -> StatsSnapshot {
        self.store.db().stats().snapshot()
    }

    fn sampled_queries(&self) -> u64 {
        self.store.db().stats().sampled_queries.get()
    }

    fn user_bytes_put(&self) -> u64 {
        self.store.put_bytes
    }

    fn ratios_from_audit(&self) -> bool {
        false
    }

    fn finish(&mut self, t: &mut Tracer) -> Result<FinishReport, String> {
        // Every key must still be there, and a range around a live key is
        // never reported empty: the filter's one hard promise.
        let mut audit: Vec<Op> =
            self.keys.iter().map(|&k| Op::Get { key: key_of(k), expect: Some(Some(0)) }).collect();
        let step = (self.keys.len() / self.sizes.audit_seeks.max(1)).max(1);
        for &k in self.keys.iter().step_by(step) {
            audit.push(Op::Seek { lo: key_of(k), hi: key_of(k), expect: true });
            audit.push(Op::Seek {
                lo: key_of(k.saturating_sub(9)),
                hi: key_of(k.saturating_add(9)),
                expect: true,
            });
        }
        let n = self.keys.len() as u64;
        self.store.close_reopen_audit(false, &audit, &[], n, n * 8, t)
    }

    fn replay_input(&self) -> ReplayInput {
        ReplayInput {
            keys: self.keys.iter().map(|&k| key_of(k)).collect(),
            seeks: self.first_round.iter().map(|&(lo, hi)| (key_of(lo), key_of(hi))).collect(),
        }
    }
}

// ------------------------------------------------------------ scan_short

/// Short ordered scans over URL keys that fit the block cache, under a
/// fixed unflushed MemTable overlay: YCSB-E's steady state, held still.
pub struct ScanShort {
    seed: u64,
    sizes: Sizes,
    /// Every live key, sorted: settled ones and the overlay.
    table: Vec<Key>,
    order: Vec<u32>,
    zipf: Option<Zipfian>,
    rng: StdRng,
    audit_seeks: Vec<(Key, Key)>,
    last_round: Vec<Op>,
    store: Store,
}

impl ScanShort {
    pub fn new(seed: u64, sizes: Sizes) -> Self {
        ScanShort {
            seed,
            sizes,
            table: Vec::new(),
            order: Vec::new(),
            zipf: None,
            rng: StdRng::seed_from_u64(seed ^ 0x5CA9),
            audit_seeks: Vec::new(),
            last_round: Vec::new(),
            store: Store::default(),
        }
    }

    fn in_overlay(i: usize) -> bool {
        i % OVERLAY_EVERY == OVERLAY_EVERY - 1
    }
}

impl Workload for ScanShort {
    fn generate(&mut self) {
        let total = self.sizes.keys + self.sizes.keys / (OVERLAY_EVERY - 1);
        self.table = generate_urls(total, self.seed);
        self.order = shuffled(total, self.seed ^ 0x5AFE);
        self.zipf = Some(Zipfian::scrambled(total as u64, THETA));
        self.audit_seeks = StringQueryGen::new(&self.table, 32, 1 << 10, self.seed ^ 0xA0D1)
            .empty_queries(self.sizes.audit_seeks, |g| g.correlated());
    }

    fn setup(&mut self, dir: &Path, t: &mut Tracer) -> Result<SetupReport, String> {
        let start = Instant::now();
        let settled = self
            .order
            .iter()
            .filter(|&&i| !Self::in_overlay(i as usize))
            .map(|&i| self.table[i as usize].clone());
        let mut report = self.store.build(dir, &[], settled, t)?;
        let overlay = self
            .order
            .iter()
            .filter(|&&i| Self::in_overlay(i as usize))
            .map(|&i| self.table[i as usize].clone());
        self.store.put_bytes += t.phase("lsm.load", |_| load(self.store.db(), overlay))?.1;
        report.secs = start.elapsed().as_secs_f64();
        Ok(report)
    }

    fn teardown(&mut self) {
        self.store.db = None;
    }

    fn next_round(&mut self) -> Vec<Vec<Op>> {
        let zipf = self.zipf.as_ref().expect("generate ran");
        let ops: Vec<Op> = (0..self.sizes.round_ops)
            .map(|_| {
                let first = zipf.next(&mut self.rng) as usize;
                let limit = self.rng.gen_range(1..=MAX_SCAN_ROWS);
                let rows = (limit as usize).min(self.table.len() - first);
                Op::Scan {
                    lo: self.table[first].clone(),
                    hi: None,
                    limit,
                    first: first as u32,
                    rows: rows as u32,
                }
            })
            .collect();
        self.last_round = ops.clone();
        vec![ops]
    }

    fn run_round(&mut self, ops: &[Vec<Op>], traced: bool, epoch: Instant) -> RoundOut {
        run_embedded(self.store.db(), &ops[0], &self.table, traced, epoch)
    }

    fn stats(&self) -> StatsSnapshot {
        self.store.db().stats().snapshot()
    }

    fn sampled_queries(&self) -> u64 {
        self.store.db().stats().sampled_queries.get()
    }

    fn user_bytes_put(&self) -> u64 {
        self.store.put_bytes
    }

    /// Every scanned range is non-empty and the SSTs fit the block cache,
    /// so the rounds show no filter decision and no block read; the cold
    /// reopened store, probed with certified-empty Seeks, shows both.
    fn ratios_from_audit(&self) -> bool {
        true
    }

    fn finish(&mut self, t: &mut Tracer) -> Result<FinishReport, String> {
        let mut audit: Vec<Op> =
            self.table.iter().map(|k| Op::Get { key: k.clone(), expect: Some(Some(0)) }).collect();
        audit.extend(self.audit_seeks.iter().map(|(lo, hi)| Op::Seek {
            lo: lo.clone(),
            hi: hi.clone(),
            expect: false,
        }));
        audit.append(&mut self.last_round);
        let key_bytes = self.table.iter().map(|k| k.len() as u64).sum();
        self.store.close_reopen_audit(
            false,
            &audit,
            &self.table,
            self.table.len() as u64,
            key_bytes,
            t,
        )
    }

    fn replay_input(&self) -> ReplayInput {
        ReplayInput { keys: self.table.clone(), seeks: self.audit_seeks.clone() }
    }
}

// -------------------------------------------------------------- rw_mixed

/// Reads beside writes on the same layers, ending in a crash.
pub struct RwMixed {
    seed: u64,
    sizes: Sizes,
    /// Keys loaded at set-up, sorted (the correlated Seeks' anchors).
    keys: Vec<u64>,
    order: Vec<u32>,
    samples: Vec<(u64, u64)>,
    /// The mirror: every live key and the version its value carries.
    oracle: BTreeMap<u64, u32>,
    zipf: Option<Zipfian>,
    rng: StdRng,
    first_seeks: Vec<(u64, u64)>,
    store: Store,
}

impl RwMixed {
    pub fn new(seed: u64, sizes: Sizes) -> Self {
        RwMixed {
            seed,
            sizes,
            keys: Vec::new(),
            order: Vec::new(),
            samples: Vec::new(),
            oracle: BTreeMap::new(),
            zipf: None,
            rng: StdRng::seed_from_u64(seed ^ 0x3A1D),
            first_seeks: Vec::new(),
            store: Store::default(),
        }
    }

    /// A certified-empty `Split` Seek against the oracle as it stands.
    fn empty_seek(&mut self) -> (u64, u64) {
        let shape = split_shape();
        loop {
            let seed = self.rng.gen::<u64>();
            let (lo, hi) = QueryGen::new(shape.clone(), &self.keys, &[], seed).next_range();
            if self.oracle.range(lo..=hi).next().is_none() {
                return (lo, hi);
            }
        }
    }
}

impl Workload for RwMixed {
    fn generate(&mut self) {
        self.keys = Dataset::Uniform.generate(self.sizes.keys, self.seed);
        self.order = shuffled(self.keys.len(), self.seed ^ 0x5AFE);
        self.samples = QueryGen::new(split_shape(), &self.keys, &[], self.seed ^ 0x5A3B)
            .empty_ranges(self.sizes.samples);
        self.zipf = Some(Zipfian::scrambled(self.keys.len() as u64, THETA));
    }

    fn setup(&mut self, dir: &Path, t: &mut Tracer) -> Result<SetupReport, String> {
        self.oracle = self.keys.iter().map(|&k| (k, 0)).collect();
        let keys = self.order.iter().map(|&i| key_of(self.keys[i as usize]));
        self.store.build(dir, &self.samples, keys, t)
    }

    fn teardown(&mut self) {
        self.store.db = None;
    }

    /// 45 % get of a live key, 40 % update, 5 % insert of a fresh key,
    /// 10 % certified-empty Seek; keys chosen scrambled-zipfian.
    fn next_round(&mut self) -> Vec<Vec<Op>> {
        let mut ops = Vec::with_capacity(self.sizes.round_ops);
        for _ in 0..self.sizes.round_ops {
            let zipf = self.zipf.as_ref().expect("generate ran");
            let pick = self.keys[zipf.next(&mut self.rng) as usize];
            let op = match self.rng.gen_range(0..100u32) {
                0..=44 => {
                    Op::Get { key: key_of(pick), expect: Some(self.oracle.get(&pick).copied()) }
                }
                45..=84 => {
                    let version = self.oracle.get_mut(&pick).expect("loaded keys stay live");
                    *version += 1;
                    Op::Put { key: key_of(pick), version: *version }
                }
                85..=89 => {
                    let fresh = loop {
                        let k = self.rng.gen::<u64>();
                        if !self.oracle.contains_key(&k) {
                            break k;
                        }
                    };
                    self.oracle.insert(fresh, 0);
                    Op::Put { key: key_of(fresh), version: 0 }
                }
                _ => {
                    let (lo, hi) = self.empty_seek();
                    if self.first_seeks.len() < self.sizes.samples {
                        self.first_seeks.push((lo, hi));
                    }
                    Op::Seek { lo: key_of(lo), hi: key_of(hi), expect: false }
                }
            };
            if let Op::Put { key, .. } = &op {
                self.store.put_bytes += (key.len() + VALUE_LEN) as u64;
            }
            ops.push(op);
        }
        vec![ops]
    }

    fn run_round(&mut self, ops: &[Vec<Op>], traced: bool, epoch: Instant) -> RoundOut {
        run_embedded(self.store.db(), &ops[0], &[], traced, epoch)
    }

    fn stats(&self) -> StatsSnapshot {
        self.store.db().stats().snapshot()
    }

    fn sampled_queries(&self) -> u64 {
        self.store.db().stats().sampled_queries.get()
    }

    fn user_bytes_put(&self) -> u64 {
        self.store.put_bytes
    }

    fn ratios_from_audit(&self) -> bool {
        false
    }

    /// Kill the store mid-flight; every acked write must be readable from
    /// what reached the OS.
    fn finish(&mut self, t: &mut Tracer) -> Result<FinishReport, String> {
        let audit: Vec<Op> = self
            .oracle
            .iter()
            .map(|(&k, &v)| Op::Get { key: key_of(k), expect: Some(Some(v)) })
            .collect();
        let n = self.oracle.len() as u64;
        self.store.close_reopen_audit(true, &audit, &[], n, n * 8, t)
    }

    fn replay_input(&self) -> ReplayInput {
        ReplayInput {
            keys: self.keys.iter().map(|&k| key_of(k)).collect(),
            seeks: self.first_seeks.iter().map(|&(lo, hi)| (key_of(lo), key_of(hi))).collect(),
        }
    }
}
