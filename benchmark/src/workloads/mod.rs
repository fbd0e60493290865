//! The four workloads and what they share: the run shape every workload
//! follows is in `run.rs`; here is what a workload must provide for it.

mod embedded;
mod served;

use crate::ops::{issue, Key, Op, Tally, KINDS, VALUE_LEN};
use crate::trace::Tracer;
use proteus_core::key::u64_key;
use proteus_lsm::{Db, DbConfig, ProteusFactory, StatsSnapshot, SyncMode};
use proteus_workloads::Workload as QueryShape;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub const NAMES: [&str; 4] = ["seek_empty", "scan_short", "rw_mixed", "server_mixed"];

/// Frozen sizes of one workload (see `BENCHMARK.json` and the README).
/// A round is sized to take about one second at the commit that froze
/// it, so `--seconds N` asks for N measured rounds: the op count of a run
/// is fixed by its arguments, never by how fast the program is, and the
/// state-dependent metrics (space, memory, write amplification) stay
/// comparable between a fast and a slow build. `--smoke` divides every
/// count by 50.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Keys loaded at set-up.
    pub keys: usize,
    /// Operations per round, all clients together.
    pub round_ops: usize,
    /// Sample queries seeded into each store's queue at set-up.
    pub samples: usize,
    /// Certified-empty Seeks replayed against the reopened store.
    pub audit_seeks: usize,
    /// Set-ups per run: one before the rounds, the rest after the audit;
    /// `setup_s` is their median. More where a set-up is short, and so
    /// noisy. `--smoke` leaves it alone.
    pub setups: usize,
}

impl Sizes {
    pub fn of(workload: &str, smoke: bool) -> Sizes {
        let full = match workload {
            "seek_empty" => Sizes {
                keys: 300_000,
                round_ops: 300_000,
                samples: 20_000,
                audit_seeks: 20_000,
                setups: 3,
            },
            "scan_short" => {
                Sizes { keys: 40_000, round_ops: 6_000, samples: 0, audit_seeks: 20_000, setups: 9 }
            }
            "rw_mixed" => Sizes {
                keys: 200_000,
                round_ops: 280_000,
                samples: 20_000,
                audit_seeks: 0,
                setups: 3,
            },
            _ => Sizes {
                keys: 100_000,
                round_ops: 64_000,
                samples: 20_000,
                audit_seeks: 100_000,
                setups: 3,
            },
        };
        if !smoke {
            return full;
        }
        Sizes {
            keys: full.keys / 50,
            round_ops: full.round_ops / 50,
            samples: full.samples / 50,
            audit_seeks: full.audit_seeks / 50,
            setups: full.setups,
        }
    }
}

/// `scan_short`'s unflushed MemTable overlay: one key in 21 is written
/// after the settle, so 40 000 settled keys carry 2 000 unflushed ones.
pub const OVERLAY_EVERY: usize = 21;
/// Longest scan `scan_short` asks for (uniform in `1..=MAX_SCAN_ROWS`).
pub const MAX_SCAN_ROWS: u32 = 100;
/// Rows a `server_mixed` SCAN is limited to.
pub const SERVER_SCAN_ROWS: u32 = 16;
/// Shards of `server_mixed` (= `nproc` of the box the sizes were frozen
/// on).
pub const SERVER_SHARDS: usize = 2;
/// Client threads and connections of `server_mixed`. Twice `nproc`: with
/// one closed-loop client per core a core goes idle at every round trip,
/// and what is measured is how long this sandbox takes to wake it (rounds
/// of the same ops ran at 37 to 100 kops/s); with two per core the cores
/// stay busy and rounds repeat.
pub const SERVER_CLIENTS: usize = 4;
/// Zipfian skew of every skewed choice (YCSB's constant).
pub const THETA: f64 = 0.99;

/// The paper's Fig. 6 `Split` query shape, used by every Seek.
pub fn split_shape() -> QueryShape {
    QueryShape::Split { uniform_rmax: 1 << 15, correlated_rmax: 32, corr_degree: 1 << 10 }
}

/// The store configuration: every field at its default except the flush
/// policy, which each workload fixes and states.
pub fn store_config(sync: SyncMode) -> DbConfig {
    DbConfig::builder().sync_mode(sync).build().expect("default configuration is valid")
}

pub fn open_store(dir: &Path, sync: SyncMode) -> Result<Db, String> {
    Db::open(dir, store_config(sync), Arc::new(ProteusFactory::default()))
        .map_err(|e| format!("opening {}: {e}", dir.display()))
}

pub fn key_of(k: u64) -> Key {
    u64_key(k).to_vec()
}

/// What one set-up cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupReport {
    /// Open + load/preload + settle/server start.
    pub secs: f64,
    /// Thousand keys loaded per second of the load phase.
    pub load_kops: f64,
    /// `flush_and_settle` time (0 for the server, which has no barrier).
    pub settle_s: f64,
}

/// One measured round.
pub struct RoundOut {
    /// Wall time from the first op issued to the last client done.
    pub secs: f64,
    pub tally: Tally,
}

/// Shape of the store(s) after the final settle.
#[derive(Debug, Default, Clone, Copy)]
pub struct Shape {
    pub filter_bits: u64,
    pub sst_entries: u64,
    pub sst_count: u64,
    pub l0_files: u64,
    pub levels: u64,
    pub sst_bytes: u64,
    pub tombstones: u64,
}

impl Shape {
    pub fn add(&mut self, db: &Db) {
        let counts = db.level_file_counts();
        self.filter_bits += db.filter_bits();
        self.sst_entries += db.sst_entries();
        self.sst_count += db.sst_count() as u64;
        self.l0_files += counts.first().copied().unwrap_or(0) as u64;
        self.levels = self.levels.max(counts.iter().filter(|&&c| c > 0).count() as u64);
        self.sst_bytes += db.sst_bytes();
        self.tombstones += db.sst_tombstones();
    }
}

/// What closing, reopening and auditing the store(s) found.
#[derive(Default)]
pub struct FinishReport {
    /// Oracle checks made against the reopened store(s), and how they
    /// went.
    pub tally: Tally,
    /// Graceful shutdown / crash time.
    pub close_ms: f64,
    /// `Db::open` on the existing directories, filters decoded.
    pub reopen_ms: f64,
    /// Counters right after the reopen (recovery counters only).
    pub recovered: StatsSnapshot,
    /// Counter deltas over the audit replay, and the ops it issued.
    pub audit: StatsSnapshot,
    pub audit_ops: u64,
    pub shape: Shape,
    /// Bytes in the data directory after the final settle.
    pub dir_bytes: u64,
    /// Key + value bytes the oracle says are live.
    pub live_bytes: u64,
    /// Workload-specific per-layer values.
    pub extras: Vec<(&'static str, f64)>,
}

/// Inputs of the layer replay: the workload's own keys and Seeks at the
/// canonical width the store trains its filters at.
pub struct ReplayInput {
    /// Sorted keys (raw, as written to the store).
    pub keys: Vec<Key>,
    /// Certified-empty `[lo, hi]` Seeks (raw bounds).
    pub seeks: Vec<(Key, Key)>,
}

pub trait Workload {
    /// Make every input that does not depend on store state from the seed.
    fn generate(&mut self);
    /// Build the store(s) in `dir` from scratch. Called several times per
    /// run, each time on an empty directory after [`Workload::teardown`].
    fn setup(&mut self, dir: &Path, t: &mut Tracer) -> Result<SetupReport, String>;
    /// Drop the store(s) a repeated set-up built.
    fn teardown(&mut self);
    /// Span names of `[get, put, seek, scan]` ops: `lsm.*` or `server.*`.
    fn span_names(&self) -> [&'static str; KINDS] {
        <&Db as crate::ops::Target>::NAMES
    }
    /// The flush policy and the number of closed-loop clients.
    fn policy(&self) -> (&'static str, usize) {
        ("Off", 1)
    }
    /// Generate the next round: one op list per client, expectations
    /// included (the oracle advances here, not when the ops run).
    fn next_round(&mut self) -> Vec<Vec<Op>>;
    /// Issue one round and time it.
    fn run_round(&mut self, ops: &[Vec<Op>], traced: bool, epoch: Instant) -> RoundOut;
    /// The store's counters now (zeros where the harness cannot see them).
    fn stats(&self) -> StatsSnapshot;
    /// Sample queries queued in the store now (a gauge, not in snapshots).
    fn sampled_queries(&self) -> u64 {
        0
    }
    /// Key + value bytes put so far, every set-up included.
    fn user_bytes_put(&self) -> u64;
    /// Do `filter_fpr` and `blocks_read_per_op` come from the audit replay
    /// (the rounds cannot show them) instead of from the rounds?
    fn ratios_from_audit(&self) -> bool;
    /// Close, reopen, audit against the oracle, settle, measure.
    fn finish(&mut self, t: &mut Tracer) -> Result<FinishReport, String>;
    fn replay_input(&self) -> ReplayInput;
}

pub fn make(workload: &str, seed: u64, smoke: bool) -> Result<Box<dyn Workload>, String> {
    let sizes = Sizes::of(workload, smoke);
    Ok(match workload {
        "seek_empty" => Box::new(embedded::SeekEmpty::new(seed, sizes)),
        "scan_short" => Box::new(embedded::ScanShort::new(seed, sizes)),
        "rw_mixed" => Box::new(embedded::RwMixed::new(seed, sizes)),
        "server_mixed" => Box::new(served::ServerMixed::new(seed, sizes)),
        other => return Err(format!("unknown workload `{other}` (one of {NAMES:?})")),
    })
}

/// Issue one client's ops against an embedded store and time the round.
fn run_embedded(db: &Db, ops: &[Op], table: &[Key], traced: bool, epoch: Instant) -> RoundOut {
    let start = Instant::now();
    let tally = issue(&mut &*db, ops, table, traced, epoch);
    RoundOut { secs: start.elapsed().as_secs_f64(), tally }
}

/// Load `(key, version 0)` pairs; returns `(keys, key + value bytes)` put.
fn load(db: &Db, keys: impl Iterator<Item = Key>) -> Result<(u64, u64), String> {
    let mut value = [0u8; VALUE_LEN];
    let (mut n, mut bytes) = (0u64, 0u64);
    for key in keys {
        crate::ops::fill_value(&mut value, &key, 0);
        db.put(&key, &value).map_err(|e| format!("load put: {e}"))?;
        n += 1;
        bytes += (key.len() + VALUE_LEN) as u64;
    }
    Ok((n, bytes))
}

/// Reopen `dir` the way a restart would and decode every filter, so the
/// reopen time includes filter loading.
fn reopen(dir: &Path, sync: SyncMode) -> Result<(Db, f64), String> {
    let start = Instant::now();
    let db = open_store(dir, sync)?;
    let _ = db.filter_bits();
    Ok((db, start.elapsed().as_secs_f64() * 1e3))
}
