//! Variable-length string keys (§7): Proteus over domain names with the
//! CLHash hash family and the coarse design search.
//!
//! Run: `cargo run --release --example string_keys`

use proteus::amq::hash::HashFamily;
use proteus::core::key::pad_key;
use proteus::core::model::proteus::ProteusModelOptions;
use proteus::core::{KeySet, Proteus, ProteusOptions, SampleQueries};
use proteus::workloads::{generate_domains, strings::add_offset};

fn main() {
    // Synthetic .org domains; canonical width = 64 bytes (NUL-padded, §7.1).
    let width = 64;
    let domains = generate_domains(30_000, 42);
    let (keys, probe_pool) = domains.split_at(25_000);
    let keyset = KeySet::from_strings(keys, width);
    println!("{} domain keys, e.g. {:?}", keyset.len(), String::from_utf8_lossy(&keys[0]));

    // Sample queries: ranges starting at unseen domains (empty by
    // construction after certification).
    let mut samples = SampleQueries::new(width);
    for d in probe_pool {
        let lo = pad_key(d, width);
        let hi = add_offset(&lo, 1 << 30);
        if lo <= hi {
            samples.push(&lo, &hi);
        }
    }
    samples.retain_empty(&keyset);
    println!("{} empty sample queries", samples.len());

    let opts = ProteusOptions {
        hash_family: HashFamily::ClHash, // §7.1: CLHASH for strings
        model: ProteusModelOptions {
            max_bloom_lengths: 128, // §7.2: coarse search over 512-bit keys
        },
        ..Default::default()
    };
    let filter = Proteus::train(&keyset, &samples, 14 * keyset.len() as u64, &opts);
    let d = filter.design();
    println!(
        "design: coarse stage {} bits ({}) + Bloom prefix {} bits; {:.1} bits/key",
        d.trie_depth_bits,
        filter.coarse_encoding().map_or("none".into(), |e| e.to_string()),
        d.bloom_prefix_len,
        filter.size_bits() as f64 / keyset.len() as f64
    );

    // Point lookups of members always pass.
    for d in keys.iter().step_by(5000) {
        assert!(filter.query_str(d, d));
    }
    // Ranges around unseen domains are mostly filtered.
    let mut fps = 0usize;
    let mut total = 0usize;
    for (lo, hi) in samples.iter().take(4000) {
        total += 1;
        if filter.query(lo, hi) {
            fps += 1;
        }
    }
    println!("FPR on {total} sampled empty ranges: {:.4}", fps as f64 / total as f64);
}
