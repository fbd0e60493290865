//! An extension beyond range emptiness: approximate range *counts* via the
//! counting-Bloom variant (§4.1 of the paper sketches this;
//! `CountingProteus` implements it).
//!
//! Run: `cargo run --release --example range_counts`

use proteus::core::{CountingProteus, CountingProteusOptions, KeySet, SampleQueries};
use proteus::workloads::{Dataset, QueryGen, Workload};

fn main() {
    // Clustered keys: sensor readings at ~1ms spacing within one day.
    let raw: Vec<u64> = Dataset::Facebook.generate(50_000, 3);
    let keys = KeySet::from_u64(&raw);
    let workload = Workload::Correlated { rmax: 1 << 14, corr_degree: 1 << 12 };
    let samples =
        SampleQueries::from_u64(&QueryGen::new(workload, &raw, &[], 9).empty_ranges(5_000));

    // Counting filters pay 4 bits per counter: give 32 BPK.
    let counting = CountingProteus::train(
        &keys,
        &samples,
        32 * keys.len() as u64,
        &CountingProteusOptions::default(),
    );
    let (l1, l2) = counting.design_bits();
    println!("CountingProteus design: trie {l1} bits, counting prefix {l2} bits");
    for window in [16usize, 64, 256] {
        let lo = raw[1000];
        let hi = raw[1000 + window - 1];
        let est = counting.count_estimate_u64(lo, hi);
        println!(
            "  range covering {window:>3} keys -> estimate {est:>4} (truth {window}, upper bound)"
        );
    }
    let gap_probe = raw[2000] + (raw[2001] - raw[2000]) / 2;
    println!(
        "  mid-gap range -> estimate {}",
        counting.count_estimate_u64(gap_probe, gap_probe + 1)
    );
}
