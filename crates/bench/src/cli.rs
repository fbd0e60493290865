//! Minimal command-line parsing shared by every experiment binary.
//!
//! All binaries accept the same scale knobs so the paper's full scale
//! (10M keys, 1M queries, 20K samples) can be requested explicitly:
//!
//! ```text
//! --keys N       dataset size            (default laptop-scale per binary)
//! --queries N    evaluation queries
//! --samples N    sample queries fed to the models
//! --seed N       RNG seed
//! --bpk LIST     comma-separated bits-per-key budgets (e.g. 8,10,12)
//! --out DIR      CSV directory: each table goes to DIR/<table>.csv (default results)
//! --part X       sub-experiment selector (figure-specific)
//! ```
//!
//! These binaries reproduce the paper's figures and tables. Performance
//! over time is tracked by the `benchmark/` package (`BENCHMARK.json`),
//! not here.

use std::collections::HashMap;

/// Parsed arguments with defaults supplied by the binary.
#[derive(Debug, Clone)]
pub struct Args {
    map: HashMap<String, String>,
    pub keys: usize,
    pub queries: usize,
    pub samples: usize,
    pub seed: u64,
    pub bpk: Vec<u64>,
    pub out: Option<String>,
    pub part: String,
}

impl Args {
    /// Parse `std::env::args` with per-binary defaults.
    pub fn parse(default_keys: usize, default_queries: usize, default_samples: usize) -> Args {
        let mut map = HashMap::new();
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                let value = if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    i += 1;
                    argv[i].clone()
                } else {
                    "true".to_string()
                };
                map.insert(name.to_string(), value);
            }
            i += 1;
        }
        if map.contains_key("help") || argv.iter().any(|a| a == "-h") {
            eprintln!(
                "Proteus experiment binary. Common flags (all optional):\n\
                 \n\
                 --keys N       dataset size            (default laptop-scale per binary)\n\
                 --queries N    evaluation queries\n\
                 --samples N    sample queries fed to the models\n\
                 --seed N       RNG seed                (default 42)\n\
                 --bpk LIST     comma-separated bits-per-key budgets (default 8,10,12,14,16,18)\n\
                 --out DIR      CSV directory, one DIR/<table>.csv per table (default results)\n\
                 --part X       sub-experiment selector (figure-specific, default 'all')\n\
                 \n\
                 Binary-specific flags:\n\
                 --heatmap-bpk B   fig1: bits per key for the heatmap (default 12)\n\
                 --fig4-bpk B      fig4: bits per key (default 10); --step N grid step\n\
                 --value-len N     fig6/7/8/9: value size in bytes (default 128)\n\
                 --lsm-bpk B       fig7/8: filter budget in the LSM store (default 12)\n\
                 --batches N       fig7/8: batches per run (default 12)\n\
                 --puts N          fig7: interleaved inserts\n\
                 --immediate       fig7: hard switch at the midpoint (the paper's Figure 8)\n\
                 --width W         fig9: canonical string width in bytes\n\
                 --len-bits L      fig9: prefix length for the string workloads\n\
                 \n\
                 Performance over time is tracked by the benchmark/ package, not by\n\
                 these binaries: `cargo run --release --manifest-path benchmark/Cargo.toml\n\
                 -- run --workload seek_empty --seed 1 --seconds 3 --trace 1`.\n\
                 \n\
                 The paper's full scale is --keys 10000000 --queries 1000000 --samples 20000."
            );
            std::process::exit(0);
        }
        let get_usize = |m: &HashMap<String, String>, k: &str, d: usize| {
            m.get(k).map_or(d, |v| v.parse().expect(k))
        };
        let keys = get_usize(&map, "keys", default_keys);
        let queries = get_usize(&map, "queries", default_queries);
        let samples = get_usize(&map, "samples", default_samples);
        let seed = map.get("seed").map_or(42, |v| v.parse().expect("seed"));
        let bpk = map
            .get("bpk")
            .map(|v| v.split(',').map(|x| x.trim().parse().expect("bpk")).collect())
            .unwrap_or_else(|| vec![8, 10, 12, 14, 16, 18]);
        let out = map.get("out").cloned();
        let part = map.get("part").cloned().unwrap_or_else(|| "all".to_string());
        Args { map, keys, queries, samples, seed, bpk, out, part }
    }

    /// Raw access to a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(|s| s.as_str())
    }

    /// A `usize` flag with default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.map.get(key).map_or(default, |v| v.parse().expect(key))
    }

    /// A `u64` flag with default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.map.get(key).map_or(default, |v| v.parse().expect(key))
    }
}
