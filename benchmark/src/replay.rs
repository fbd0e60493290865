//! The layer replay: each crate's public API called directly on the
//! workload's own keys and Seeks, one layer at a time and from one thread,
//! so a per-layer cost can be read beside the end-to-end numbers it
//! should (or should not) move. Runs in the traced run only.
//!
//! Keys are canonicalised the way the store does it before training a
//! filter: padded or truncated to `DbConfig::key_width` (8 bytes). On
//! `scan_short` that collapses every URL onto its `https://` prefix; the
//! replay shows that as it is.

use crate::ops::{fill_value, splitmix, Key, VALUE_LEN};
use crate::trace::Tracer;
use crate::workloads::ReplayInput;
use proteus_amq::bloom::BloomFilter;
use proteus_amq::hash::{HashFamily, PrefixHasher};
use proteus_core::key::pad_key;
use proteus_core::model::proteus::ProteusModel;
use proteus_core::{KeySet, Proteus, ProteusOptions, RangeFilter, SampleQueries};
use proteus_filters::{FilterCodec, Rosetta, RosettaOptions, Surf, SurfSuffix};
use proteus_lsm::block::{Block, VarBlockBuilder};
use proteus_lsm::memtable::MemTable;
use proteus_lsm::wal::{Wal, WalOp};
use proteus_lsm::{DbConfig, Stats, SyncMode};
use proteus_server::{Request, Router};
use proteus_succinct::{BitVec, Fst, RankedBits, SelectIndex};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Keys the filter layers are rebuilt over (an even stride of the
/// workload's keys, so the slice spans the same key space).
const FILTER_KEYS: usize = 200_000;
/// Keys the baseline filters, MemTable, block and WAL replays use.
const SMALL_KEYS: usize = 50_000;
/// Probes per micro-measurement.
const PROBES: usize = 20_000;
/// The store's filter budget.
const BITS_PER_KEY: u64 = 10;

pub type Values = Vec<(&'static str, f64)>;

/// Nanoseconds per call of `f` over `n` calls (0 when there is nothing to
/// call it on).
fn ns_per<T>(n: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let start = Instant::now();
    for i in 0..n {
        black_box(f(i));
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

fn ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

fn strided(keys: &[Key], at_most: usize) -> Vec<&Key> {
    let stride = keys.len().div_ceil(at_most).max(1);
    keys.iter().step_by(stride).collect()
}

/// Build / probe / size of one filter over the canonical Seeks.
fn filter_row(
    filter: &dyn RangeFilter,
    build_ms: f64,
    n_keys: usize,
    probes: &SampleQueries,
) -> [f64; 4] {
    let n = probes.len().min(PROBES);
    let mut positives = 0usize;
    let probe_ns = ns_per(n, |i| {
        let hit = filter.may_contain_range(probes.lo(i), probes.hi(i));
        positives += hit as usize;
        hit
    });
    [
        build_ms * 1e6 / n_keys.max(1) as f64,
        probe_ns,
        if n == 0 { 0.0 } else { positives as f64 / n as f64 },
        filter.size_bits() as f64 / n_keys.max(1) as f64,
    ]
}

pub fn run(
    input: &ReplayInput,
    scratch: &Path,
    seed: u64,
    t: &mut Tracer,
) -> Result<Values, String> {
    let mut out: Values = Vec::new();
    let width = DbConfig::default().key_width();
    let mut rng = seed ^ 0x004E_91A7;

    // ---- core: the CPFPR pipeline the store runs at every flush.
    let slice = strided(&input.keys, FILTER_KEYS);
    let padded: Vec<Vec<u8>> = slice.iter().map(|k| pad_key(k, width)).collect();
    let raw_keys = padded.len();
    let (keys, keyset_ms) = t.phase("core.keyset", |_| ms(|| KeySet::new(padded, width)));
    out.push(("core.keyset_build_ns_per_key", keyset_ms * 1e6 / raw_keys.max(1) as f64));
    let n_keys = keys.len();
    let m_bits = BITS_PER_KEY * n_keys as u64;
    let canonical: Vec<(Vec<u8>, Vec<u8>)> = input
        .seeks
        .iter()
        .map(|(lo, hi)| (pad_key(lo, width), pad_key(hi, width)))
        .filter(|(lo, hi)| lo <= hi)
        .collect();
    let (train, probe) = canonical.split_at(canonical.len() / 2);
    let mut samples = SampleQueries::from_bounds(train, width);
    samples.retain_empty(&keys);
    let mut probes = SampleQueries::from_bounds(probe, width);
    probes.retain_empty(&keys);

    let opts = ProteusOptions::default();
    let (model, model_ms) = t.phase("core.model_build", |_| {
        ms(|| ProteusModel::build(&keys, &samples, m_bits, &opts.model))
    });
    let (design, search_ms) =
        t.phase("core.design_search", |_| ms(|| model.best_design(&keys, m_bits)));
    let (proteus, build_ms) = t.phase("core.filter_build", |_| {
        ms(|| Proteus::build_with_design(&keys, design, m_bits, &opts))
    });
    let row = t.phase("core.probe", |_| filter_row(&proteus, build_ms, n_keys, &probes));
    out.push(("core.model_build_ms", model_ms));
    out.push(("core.design_search_ms", search_ms));
    out.push(("core.filter_build_ns_per_key", row[0]));
    out.push(("core.probe_ns", row[1]));
    out.push(("core.fpr", row[2]));
    let predicted = if design.expected_fpr.is_finite() { design.expected_fpr } else { 1.0 };
    out.push((
        "core.model_fpr_abs_err",
        if probes.is_empty() { 0.0 } else { (predicted - row[2]).abs() },
    ));
    out.push(("core.bits_per_key", row[3]));
    out.push(("core.design.trie_depth_bits", design.trie_depth_bits as f64));
    out.push(("core.design.bloom_prefix_len", design.bloom_prefix_len as f64));

    // ---- filters: the two baselines and the persistent filter form.
    let small = strided(&input.keys, SMALL_KEYS);
    let small_keys = KeySet::new(small.iter().map(|k| pad_key(k, width)).collect(), width);
    let small_bits = BITS_PER_KEY * small_keys.len() as u64;
    let mut small_samples = SampleQueries::from_bounds(train, width);
    small_samples.retain_empty(&small_keys);
    let mut small_probes = SampleQueries::from_bounds(probe, width);
    small_probes.retain_empty(&small_keys);
    let (surf, surf_ms) =
        t.phase("filters.surf", |_| ms(|| Surf::build(&small_keys, SurfSuffix::Real(4))));
    let row = filter_row(&surf, surf_ms, small_keys.len(), &small_probes);
    for (name, v) in [
        "filters.surf.build_ns_per_key",
        "filters.surf.probe_ns",
        "filters.surf.fpr",
        "filters.surf.bits_per_key",
    ]
    .into_iter()
    .zip(row)
    {
        out.push((name, v));
    }
    let (rosetta, rosetta_ms) = t.phase("filters.rosetta", |_| {
        ms(|| Rosetta::train(&small_keys, &small_samples, small_bits, &RosettaOptions::default()))
    });
    let row = filter_row(&rosetta, rosetta_ms, small_keys.len(), &small_probes);
    for (name, v) in [
        "filters.rosetta.build_ns_per_key",
        "filters.rosetta.probe_ns",
        "filters.rosetta.fpr",
        "filters.rosetta.bits_per_key",
    ]
    .into_iter()
    .zip(row)
    {
        out.push((name, v));
    }
    let (encoded, encode_ms) = t.phase("filters.encode", |_| ms(|| FilterCodec::encode(&proteus)));
    let encoded = encoded.map_err(|e| format!("encoding the replay filter: {e}"))?;
    let (decoded, decode_ms) = t.phase("filters.decode", |_| ms(|| FilterCodec::decode(&encoded)));
    let decoded = decoded.map_err(|e| format!("decoding the replay filter: {e}"))?;
    if decoded.filter.size_bits() != proteus.size_bits() {
        return Err("the replay filter changed size across encode/decode".to_string());
    }
    out.push(("filters.codec.encode_ns_per_key", encode_ms * 1e6 / n_keys.max(1) as f64));
    out.push(("filters.codec.decode_ns_per_key", decode_ms * 1e6 / n_keys.max(1) as f64));

    // ---- succinct: rank/select over a vector the size of a per-SST
    // LOUDS vector, and trie lookups over the canonical keys.
    t.enter("succinct.replay");
    const BITS: usize = 1 << 17;
    let mut bits = BitVec::with_capacity(BITS);
    let mut word = 0u64;
    for i in 0..BITS {
        if i % 64 == 0 {
            word = splitmix(&mut rng);
        }
        bits.push(word >> (i % 64) & 1 == 1);
    }
    let ranked = RankedBits::new(bits);
    let select = SelectIndex::new(&ranked);
    let ones = ranked.count_ones().max(1);
    let positions: Vec<usize> = (0..PROBES).map(|_| splitmix(&mut rng) as usize % BITS).collect();
    out.push(("succinct.rank1_ns", ns_per(PROBES, |i| ranked.rank1(positions[i]))));
    out.push((
        "succinct.select1_ns",
        ns_per(PROBES, |i| select.select1(&ranked, positions[i] % ones)),
    ));
    let branches: Vec<&[u8]> = small_keys.iter().collect();
    let (fst, _) = Fst::from_branches(&branches);
    let lookups: Vec<&[u8]> =
        (0..PROBES).map(|_| branches[splitmix(&mut rng) as usize % branches.len()]).collect();
    let mut found = 0usize;
    out.push((
        "succinct.fst_lookup_ns",
        ns_per(PROBES, |i| found += fst.lookup(lookups[i]).is_some() as usize),
    ));
    if found != PROBES {
        return Err(format!("the replay trie lost {} of its own keys", PROBES - found));
    }
    t.exit();

    // ---- amq: hash + Bloom insert / membership over the same keys.
    t.enter("amq.replay");
    let hasher = PrefixHasher::new(HashFamily::Murmur3, 0x1CEB_00DA);
    let mut bloom = BloomFilter::new(small_bits.max(64), small_keys.len() as u64);
    out.push((
        "amq.bloom_insert_ns",
        ns_per(branches.len(), |i| bloom.insert(hasher.hash_bytes(branches[i]))),
    ));
    let mut members = 0usize;
    out.push((
        "amq.bloom_contains_ns",
        ns_per(PROBES, |i| members += bloom.contains(hasher.hash_bytes(lookups[i])) as usize),
    ));
    if members != PROBES {
        return Err("the replay Bloom filter returned a false negative".to_string());
    }
    t.exit();

    // ---- lsm: MemTable, block and WAL primitives on raw keys + values.
    t.enter("lsm.memtable.replay");
    let mut value = [0u8; VALUE_LEN];
    fill_value(&mut value, b"replay", 0);
    let order: Vec<usize> = {
        let mut idx: Vec<usize> = (0..small.len()).collect();
        for i in (1..idx.len()).rev() {
            idx.swap(i, splitmix(&mut rng) as usize % (i + 1));
        }
        idx
    };
    let mut memtable = MemTable::new();
    out.push((
        "lsm.memtable.insert_ns",
        ns_per(order.len(), |i| memtable.apply_ref(small[order[i]], Some(&value))),
    ));
    out.push((
        "lsm.memtable.get_ns",
        ns_per(order.len().min(PROBES), |i| memtable.get(small[order[i]]).is_some()),
    ));
    let windows = 200.min(small.len());
    let mut entries = 0usize;
    let window_start = Instant::now();
    for w in 0..windows {
        let lo = small[w * (small.len() / windows)];
        let hi = small[(w * (small.len() / windows) + 49).min(small.len() - 1)];
        entries += black_box(memtable.range_entries(lo, hi)).len();
    }
    out.push((
        "lsm.memtable.range_entries_ns_per_entry",
        window_start.elapsed().as_nanos() as f64 / entries.max(1) as f64,
    ));
    t.exit();

    t.enter("lsm.block.replay");
    let block_bytes = DbConfig::default().block_bytes();
    let mut disks = Vec::new();
    let mut builder = VarBlockBuilder::new();
    let build_start = Instant::now();
    for key in &small {
        builder.add(key, Some(&value));
        if builder.raw_len() >= block_bytes {
            disks.push(std::mem::take(&mut builder).finish().0);
        }
    }
    if !builder.is_empty() {
        disks.push(builder.finish().0);
    }
    out.push((
        "lsm.block.build_ns_per_entry",
        build_start.elapsed().as_nanos() as f64 / small.len().max(1) as f64,
    ));
    let blocks: Vec<Block> = disks
        .iter()
        .map(|d| Block::decode_v3(d))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("decoding a replay block: {e}"))?;
    let scan_start = Instant::now();
    let mut scanned = 0usize;
    for block in &blocks {
        for i in 0..block.len() {
            let (k, v) = block.entry(i);
            scanned += black_box(k.len() + v.map_or(0, <[u8]>::len)).min(1);
        }
    }
    out.push((
        "lsm.block.scan_ns_per_entry",
        scan_start.elapsed().as_nanos() as f64 / scanned.max(1) as f64,
    ));
    if scanned != small.len() {
        return Err(format!("replay blocks hold {scanned} entries, built from {}", small.len()));
    }
    t.exit();

    t.enter("lsm.wal.replay");
    let wal_dir = scratch.join("replay-wal");
    std::fs::create_dir_all(&wal_dir).map_err(|e| e.to_string())?;
    let wal = Wal::create(&wal_dir, 1, DbConfig::default().max_key_bytes(), SyncMode::Off)
        .map_err(|e| format!("creating the replay WAL: {e}"))?;
    let stats = Stats::default();
    let records: Vec<[WalOp; 1]> =
        small.iter().take(PROBES).map(|k| [((*k).clone(), Some(value.to_vec()))]).collect();
    let mut append_errors = 0usize;
    out.push((
        "lsm.wal.append_ns",
        ns_per(records.len(), |i| {
            append_errors += wal.append_commit(&records[i], &stats).is_err() as usize
        }),
    ));
    if append_errors > 0 {
        return Err(format!("{append_errors} replay WAL appends failed"));
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(&wal_dir);
    t.exit();

    // ---- server: framing and routing with no socket involved.
    t.enter("server.protocol.replay");
    let requests: Vec<Request> = small
        .iter()
        .take(PROBES)
        .enumerate()
        .map(|(i, k)| match i % 4 {
            0 => Request::Put { key: (*k).clone(), value: value.to_vec() },
            _ => Request::Get { key: (*k).clone() },
        })
        .collect();
    let mut payloads = Vec::with_capacity(requests.len());
    out.push((
        "server.protocol.encode_ns",
        ns_per(requests.len(), |i| payloads.push(requests[i].encode())),
    ));
    let mut decode_errors = 0usize;
    out.push((
        "server.protocol.decode_ns",
        ns_per(payloads.len(), |i| {
            decode_errors += Request::decode(&payloads[i]).is_err() as usize
        }),
    ));
    if decode_errors > 0 {
        return Err(format!("{decode_errors} replay frames failed to decode"));
    }
    let router = Router::new(crate::workloads::SERVER_SHARDS);
    out.push((
        "server.router.shard_of_ns",
        ns_per(small.len().min(PROBES), |i| router.shard_of(small[i])),
    ));
    t.exit();

    Ok(out)
}
