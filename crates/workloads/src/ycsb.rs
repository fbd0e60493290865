//! YCSB-style scenario suite: the six core mixes A–F over skewed request
//! distributions and two key spaces.
//!
//! The Yahoo! Cloud Serving Benchmark (Cooper et al., SoCC '10) defines its
//! core workloads as *op mixes* (read/update/insert/scan/read-modify-write
//! percentages) crossed with a *request distribution* (which record an op
//! targets). This module reproduces that shape for the Proteus store:
//!
//! | Mix | Ops                      | Canonical distribution |
//! |-----|--------------------------|------------------------|
//! | A   | 50% read, 50% update     | zipfian                |
//! | B   | 95% read, 5% update      | zipfian                |
//! | C   | 100% read                | zipfian                |
//! | D   | 95% read, 5% insert      | latest                 |
//! | E   | 95% scan, 5% insert      | zipfian                |
//! | F   | 50% read, 50% RMW        | zipfian                |
//!
//! Distributions: [`Distribution::Zipfian`] is the scrambled sampler from
//! [`crate::zipf`] (hot set spread over the whole key space);
//! [`Distribution::Latest`] maps zipfian *ranks* onto recency, so the most
//! recently inserted records are hottest (YCSB's news-feed shape for
//! workload D); [`Distribution::Hotspot`] sends 80% of ops to the hottest
//! 20% of the record space.
//!
//! Key spaces: [`KeySpace::U64`] uses dense big-endian `u64` record ids
//! (YCSB's `user<seq>` analogue — fixed 8-byte keys); [`KeySpace::Url`]
//! draws from a pre-generated pool of distinct synthetic URLs
//! ([`crate::strings::generate_urls`]), exercising the store's
//! variable-length key path end-to-end. The pool is generated with
//! headroom above the initial record count so insert-heavy mixes (D, E)
//! never run out of fresh keys.
//!
//! The generator is deterministic: identical `(mix, distribution, key
//! space, n_records, seed)` produce identical op streams, so benchmark
//! runs are reproducible and differential tests can replay a stream
//! against an oracle.

use crate::strings::generate_urls;
use crate::values::value_for_key;
use crate::zipf::{Zipfian, DEFAULT_THETA};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The six YCSB core workload mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 50% read, 50% update — "update heavy" (session store).
    A,
    /// 95% read, 5% update — "read mostly" (photo tagging).
    B,
    /// 100% read — "read only" (profile cache).
    C,
    /// 95% read, 5% insert — "read latest" (status feed).
    D,
    /// 95% scan, 5% insert — "short ranges" (threaded conversations).
    E,
    /// 50% read, 50% read-modify-write (user database).
    F,
}

/// Op percentages for a mix; always sums to 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixRatios {
    pub read: u32,
    pub update: u32,
    pub insert: u32,
    pub scan: u32,
    pub rmw: u32,
}

impl Mix {
    /// All six mixes in benchmark order.
    pub const ALL: [Mix; 6] = [Mix::A, Mix::B, Mix::C, Mix::D, Mix::E, Mix::F];

    /// Single-letter YCSB name.
    pub fn name(self) -> &'static str {
        match self {
            Mix::A => "A",
            Mix::B => "B",
            Mix::C => "C",
            Mix::D => "D",
            Mix::E => "E",
            Mix::F => "F",
        }
    }

    /// The op percentages of this mix.
    pub fn ratios(self) -> MixRatios {
        let (read, update, insert, scan, rmw) = match self {
            Mix::A => (50, 50, 0, 0, 0),
            Mix::B => (95, 5, 0, 0, 0),
            Mix::C => (100, 0, 0, 0, 0),
            Mix::D => (95, 0, 5, 0, 0),
            Mix::E => (0, 0, 5, 95, 0),
            Mix::F => (50, 0, 0, 0, 50),
        };
        MixRatios { read, update, insert, scan, rmw }
    }

    /// The request distribution YCSB pairs with this mix by default.
    pub fn default_distribution(self) -> Distribution {
        match self {
            Mix::D => Distribution::Latest,
            _ => Distribution::Zipfian,
        }
    }
}

/// Which record an op targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Scrambled Zipf(θ=0.99): a stable hot set spread over the key space.
    Zipfian,
    /// Recency skew: the most recently inserted records are hottest.
    Latest,
    /// 80% of ops hit the hottest 20% of the record space.
    Hotspot,
}

impl Distribution {
    /// Lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Distribution::Zipfian => "zipfian",
            Distribution::Latest => "latest",
            Distribution::Hotspot => "hotspot",
        }
    }
}

/// The key encoding a scenario runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySpace {
    /// Dense big-endian `u64` record ids — fixed 8-byte keys.
    U64,
    /// Distinct variable-length synthetic URLs, sorted so record id order
    /// is key order.
    Url,
}

impl KeySpace {
    /// Lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            KeySpace::U64 => "u64",
            KeySpace::Url => "url",
        }
    }
}

/// One generated operation. Keys are fully encoded; the driver just
/// executes them against the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum YcsbOp {
    /// Point lookup.
    Read(Vec<u8>),
    /// Overwrite an existing record.
    Update(Vec<u8>, Vec<u8>),
    /// Insert a record the store has never seen.
    Insert(Vec<u8>, Vec<u8>),
    /// Short range scan: start key and maximum number of records.
    Scan(Vec<u8>, usize),
    /// Read then write back the same record.
    ReadModifyWrite(Vec<u8>, Vec<u8>),
}

impl YcsbOp {
    /// Op kind as a short label for counters.
    pub fn kind(&self) -> &'static str {
        match self {
            YcsbOp::Read(..) => "read",
            YcsbOp::Update(..) => "update",
            YcsbOp::Insert(..) => "insert",
            YcsbOp::Scan(..) => "scan",
            YcsbOp::ReadModifyWrite(..) => "rmw",
        }
    }
}

/// YCSB's default maximum scan length (records per scan).
pub const MAX_SCAN_LEN: usize = 100;

/// Hotspot shape: this fraction of ops targets the hot set…
const HOTSPOT_OP_FRACTION: f64 = 0.8;
/// …which is this fraction of the live record space.
const HOTSPOT_SET_FRACTION: f64 = 0.2;

/// A deterministic YCSB scenario generator: produces the initial load set
/// and then an unbounded op stream for one `(mix, distribution, key
/// space)` cell.
#[derive(Debug, Clone)]
pub struct Ycsb {
    mix: Mix,
    dist: Distribution,
    space: KeySpace,
    /// Pre-generated sorted distinct keys for [`KeySpace::Url`]; empty
    /// for [`KeySpace::U64`].
    urls: Vec<Vec<u8>>,
    n_initial: u64,
    /// Records loaded or inserted so far; ids `0..n_live` exist.
    n_live: u64,
    /// Upper bound on `n_live` (URL pool size, effectively unbounded for
    /// u64 ids). When reached, inserts degrade to updates.
    capacity: u64,
    zipf: Option<Zipfian>,
    rng: StdRng,
    value_len: usize,
    /// Monotone op counter mixed into update/RMW values so successive
    /// writes to the same record carry different bytes.
    op_seq: u64,
}

impl Ycsb {
    /// A scenario over `n_records` initially-loaded records with
    /// `value_len`-byte values.
    ///
    /// # Panics
    ///
    /// Panics if `n_records == 0`.
    pub fn new(
        mix: Mix,
        dist: Distribution,
        space: KeySpace,
        n_records: u64,
        value_len: usize,
        seed: u64,
    ) -> Ycsb {
        assert!(n_records > 0, "YCSB scenario over an empty record set");
        // Insert-bearing mixes grow the record set while running; give the
        // URL pool 25% headroom so fresh keys never run out at benchmark
        // op counts (ops ≲ 5 × records for the 5%-insert mixes).
        let headroom = n_records / 4 + 16;
        let (urls, capacity) = match space {
            KeySpace::U64 => (Vec::new(), u64::MAX),
            KeySpace::Url => {
                let pool = generate_urls((n_records + headroom) as usize, seed);
                let cap = pool.len() as u64;
                (pool, cap)
            }
        };
        let zipf = match dist {
            // Scrambled: hot items spread across the id space.
            Distribution::Zipfian => Some(Zipfian::scrambled(n_records, DEFAULT_THETA)),
            // Raw ranks: rank 0 (hottest) maps to the newest record.
            Distribution::Latest => Some(Zipfian::new(n_records, DEFAULT_THETA)),
            Distribution::Hotspot => None,
        };
        Ycsb {
            mix,
            dist,
            space,
            urls,
            n_initial: n_records,
            n_live: n_records,
            capacity,
            zipf,
            rng: StdRng::seed_from_u64(seed ^ 0x005C_5B00),
            value_len,
            op_seq: 0,
        }
    }

    /// The mix this scenario runs.
    pub fn mix(&self) -> Mix {
        self.mix
    }

    /// The request distribution.
    pub fn distribution(&self) -> Distribution {
        self.dist
    }

    /// Records currently live (loaded + inserted).
    pub fn n_live(&self) -> u64 {
        self.n_live
    }

    /// The encoded key of record `id`.
    ///
    /// Ids are ordered: `id < id'` implies `key_of(id) < key_of(id')`
    /// (dense big-endian integers, or a sorted URL pool), so range scans
    /// over consecutive ids are range scans over consecutive keys.
    pub fn key_of(&self, id: u64) -> Vec<u8> {
        match self.space {
            KeySpace::U64 => id.to_be_bytes().to_vec(),
            KeySpace::Url => self.urls[id as usize].clone(),
        }
    }

    /// The initial `(key, value)` load set, in key order.
    pub fn load(&self) -> impl Iterator<Item = (Vec<u8>, Vec<u8>)> + '_ {
        (0..self.n_initial).map(|id| (self.key_of(id), value_for_key(id, self.value_len)))
    }

    /// Draw the record id an op targets, per the request distribution.
    fn draw_id(&mut self) -> u64 {
        match self.dist {
            // Scrambled draws land in 0..n_initial ⊆ 0..n_live.
            Distribution::Zipfian => self.zipf.as_ref().unwrap().next(&mut self.rng),
            Distribution::Latest => {
                let rank = self.zipf.as_ref().unwrap().next_rank(&mut self.rng);
                self.n_live - 1 - rank.min(self.n_live - 1)
            }
            Distribution::Hotspot => {
                let hot = ((self.n_live as f64 * HOTSPOT_SET_FRACTION) as u64).max(1);
                if self.rng.gen::<f64>() < HOTSPOT_OP_FRACTION {
                    self.rng.gen_range(0..hot)
                } else {
                    self.rng.gen_range(0..self.n_live)
                }
            }
        }
    }

    /// A fresh value for a write; varies per op so repeated writes to one
    /// record are distinguishable.
    fn write_value(&mut self, id: u64) -> Vec<u8> {
        self.op_seq += 1;
        value_for_key(id ^ self.op_seq.rotate_left(32), self.value_len)
    }

    /// Generate the next operation.
    pub fn next_op(&mut self) -> YcsbOp {
        let r = self.mix.ratios();
        let roll = self.rng.gen_range(0..100u32);
        if roll < r.read {
            let id = self.draw_id();
            YcsbOp::Read(self.key_of(id))
        } else if roll < r.read + r.update {
            let id = self.draw_id();
            let v = self.write_value(id);
            YcsbOp::Update(self.key_of(id), v)
        } else if roll < r.read + r.update + r.insert {
            if self.n_live < self.capacity {
                let id = self.n_live;
                self.n_live += 1;
                let v = self.write_value(id);
                YcsbOp::Insert(self.key_of(id), v)
            } else {
                // Key pool exhausted (can only happen far past the sized
                // headroom): degrade to an update rather than panic.
                let id = self.draw_id();
                let v = self.write_value(id);
                YcsbOp::Update(self.key_of(id), v)
            }
        } else if roll < r.read + r.update + r.insert + r.scan {
            let id = self.draw_id();
            let limit = self.rng.gen_range(1..=MAX_SCAN_LEN);
            YcsbOp::Scan(self.key_of(id), limit)
        } else {
            let id = self.draw_id();
            let v = self.write_value(id);
            YcsbOp::ReadModifyWrite(self.key_of(id), v)
        }
    }

    /// Generate `count` operations.
    pub fn ops(&mut self, count: usize) -> Vec<YcsbOp> {
        (0..count).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn kind_histogram(ops: &[YcsbOp]) -> HashMap<&'static str, usize> {
        let mut h = HashMap::new();
        for op in ops {
            *h.entry(op.kind()).or_insert(0) += 1;
        }
        h
    }

    #[test]
    fn every_mix_matches_its_declared_ratios() {
        const N_OPS: usize = 40_000;
        for mix in Mix::ALL {
            let mut g = Ycsb::new(mix, mix.default_distribution(), KeySpace::U64, 10_000, 16, 42);
            let ops = g.ops(N_OPS);
            let h = kind_histogram(&ops);
            let r = mix.ratios();
            for (kind, pct) in [
                ("read", r.read),
                ("update", r.update),
                ("insert", r.insert),
                ("scan", r.scan),
                ("rmw", r.rmw),
            ] {
                let got = *h.get(kind).unwrap_or(&0) as f64 / N_OPS as f64 * 100.0;
                assert!(
                    (got - pct as f64).abs() < 1.5,
                    "mix {} kind {kind}: got {got:.1}%, want {pct}%",
                    mix.name()
                );
            }
            assert_eq!(h.values().sum::<usize>(), N_OPS);
        }
    }

    #[test]
    fn zipfian_reads_concentrate_on_a_stable_hot_set() {
        let mut g = Ycsb::new(Mix::C, Distribution::Zipfian, KeySpace::U64, 10_000, 16, 7);
        let mut counts: HashMap<Vec<u8>, usize> = HashMap::new();
        for op in g.ops(50_000) {
            if let YcsbOp::Read(k) = op {
                *counts.entry(k).or_insert(0) += 1;
            }
        }
        let mut freq: Vec<usize> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        // Zipf(0.99) puts ~1/3 of draws on the top-10 ranks; scrambling
        // can split a rank's mass via hash collisions, so ask for >25%.
        let top10: usize = freq.iter().take(10).sum();
        assert!(top10 > 50_000 / 4, "zipfian head too flat: top-10 = {top10}/50000");
    }

    #[test]
    fn latest_distribution_prefers_recent_records() {
        let n = 10_000u64;
        let mut g = Ycsb::new(Mix::D, Distribution::Latest, KeySpace::U64, n, 16, 11);
        let mut recent = 0usize;
        let mut total = 0usize;
        let mut inserts = 0usize;
        for op in g.ops(30_000) {
            match op {
                YcsbOp::Read(k) => {
                    let id = u64::from_be_bytes(k.try_into().unwrap());
                    total += 1;
                    // "Recent" = newest 10% of the live set at draw time;
                    // n_live only grows, so id >= 0.9*n is conservative.
                    if id as f64 >= 0.9 * n as f64 {
                        recent += 1;
                    }
                }
                YcsbOp::Insert(..) => inserts += 1,
                _ => {}
            }
        }
        assert!(inserts > 0, "mix D must insert");
        let share = recent as f64 / total as f64;
        assert!(share > 0.5, "latest skew too weak: {share:.3} of reads hit newest 10%");
    }

    #[test]
    fn hotspot_sends_most_traffic_to_the_hot_fifth() {
        let n = 10_000u64;
        let mut g = Ycsb::new(Mix::B, Distribution::Hotspot, KeySpace::U64, n, 16, 13);
        let mut hot = 0usize;
        let mut total = 0usize;
        for op in g.ops(30_000) {
            let key = match &op {
                YcsbOp::Read(k) | YcsbOp::Update(k, _) => k.clone(),
                _ => continue,
            };
            let id = u64::from_be_bytes(key.as_slice().try_into().unwrap());
            total += 1;
            if id < n / 5 {
                hot += 1;
            }
        }
        let share = hot as f64 / total as f64;
        // 80% targeted + ~4% of the uniform remainder lands there too.
        assert!((0.78..=0.90).contains(&share), "hotspot share {share:.3}");
    }

    #[test]
    fn url_key_space_is_distinct_sorted_and_grows_under_inserts() {
        let n = 2_000u64;
        let mut g = Ycsb::new(Mix::E, Distribution::Zipfian, KeySpace::Url, n, 16, 17);
        let loaded: Vec<Vec<u8>> = g.load().map(|(k, _)| k).collect();
        assert_eq!(loaded.len(), n as usize);
        assert!(loaded.windows(2).all(|w| w[0] < w[1]), "load keys must be strictly sorted");
        assert!(loaded.iter().all(|k| k.starts_with(b"https://")));

        let mut inserted = Vec::new();
        let mut scans = 0usize;
        for op in g.ops(5_000) {
            match op {
                YcsbOp::Insert(k, _) => inserted.push(k),
                YcsbOp::Scan(lo, limit) => {
                    assert!((1..=MAX_SCAN_LEN).contains(&limit));
                    assert!(lo.starts_with(b"https://"));
                    scans += 1;
                }
                _ => {}
            }
        }
        assert!(scans > 4_000, "mix E is 95% scans, got {scans}");
        assert!(!inserted.is_empty(), "mix E must insert");
        assert!(g.n_live() > n);
        // Inserted keys are fresh: none collide with the load set.
        for k in &inserted {
            assert!(loaded.binary_search(k).is_err(), "insert reused a loaded key");
        }
    }

    #[test]
    fn identical_seeds_replay_identical_streams() {
        for space in [KeySpace::U64, KeySpace::Url] {
            let mut a = Ycsb::new(Mix::A, Distribution::Zipfian, space, 500, 8, 23);
            let mut b = Ycsb::new(Mix::A, Distribution::Zipfian, space, 500, 8, 23);
            assert_eq!(a.ops(1_000), b.ops(1_000));
        }
    }

    #[test]
    #[should_panic(expected = "empty record set")]
    fn rejects_zero_records() {
        let _ = Ycsb::new(Mix::A, Distribution::Zipfian, KeySpace::U64, 0, 8, 1);
    }
}
