//! String-key datasets and workloads (§7.2).
//!
//! * Fixed-length synthetic keys (80 / 200 / 1440 bits in the paper):
//!   `Uniform` — uniformly random bytes; `Normal` — the top 64 bits drawn
//!   from the §5 Normal distribution ("the mean key is defined to be the
//!   string with a most significant byte value of 128 followed by null
//!   bytes"), remaining bytes uniform.
//! * A synthetic `.org` domain dataset standing in for the Domains Project
//!   crawl: log-normally distributed name lengths (median 21 bytes, range
//!   5–253) over a DNS-safe alphabet.
//! * String range queries `[left, left + offset]` where the offset is added
//!   to the key interpreted as a big-endian integer (RMAX `2^30`,
//!   CORRDEGREE `2^29` in the paper's experiments).

use crate::datasets::sample_standard_normal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fixed-length string key distributions of §7.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StringDataset {
    Uniform,
    Normal,
}

impl StringDataset {
    /// Generate `n` distinct keys of exactly `len` bytes, sorted.
    pub fn generate(self, n: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        assert!(len >= 8, "string keys must be at least 8 bytes");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0057_C165);
        let mut keys: Vec<Vec<u8>> = Vec::with_capacity(n);
        while keys.len() < n {
            let missing = n - keys.len();
            for _ in 0..missing {
                let mut k = vec![0u8; len];
                match self {
                    StringDataset::Uniform => rng.fill(&mut k[..]),
                    StringDataset::Normal => {
                        let mean = (1u64 << 63) as f64;
                        let std = 0.01 * 2f64.powi(64);
                        let v = (mean + std * sample_standard_normal(&mut rng))
                            .clamp(0.0, u64::MAX as f64) as u64;
                        k[..8].copy_from_slice(&v.to_be_bytes());
                        rng.fill(&mut k[8..]);
                    }
                }
                keys.push(k);
            }
            keys.sort_unstable();
            keys.dedup();
        }
        keys
    }
}

/// Synthetic `.org` domain names: log-normal length distribution with
/// median ~21 bytes (clamped to the paper's observed 5–253 byte range),
/// composed from a fixed token dictionary so names share long prefixes the
/// way crawled domains do (real domains reuse common words; uniformly
/// random characters would make every range query trivially resolvable).
pub fn generate_domains(n: usize, seed: u64) -> Vec<Vec<u8>> {
    const TOKENS: &[&str] = &[
        "app", "best", "big", "bio", "blog", "blue", "book", "box", "buy", "care", "cloud", "club",
        "code", "core", "data", "dev", "digi", "direct", "east", "eco", "edge", "expo", "farm",
        "fast", "first", "fit", "forum", "free", "fresh", "fund", "geo", "go", "green", "grid",
        "group", "health", "help", "home", "hub", "info", "lab", "land", "learn", "life", "link",
        "list", "live", "local", "map", "max", "media", "meta", "micro", "mind", "my", "net",
        "new", "next", "north", "now", "one", "open", "org", "park", "pay", "pix", "plan", "play",
        "plus", "point", "pro", "quick", "real", "red", "safe", "shop", "site", "smart", "social",
        "soft", "solar", "south", "star", "store", "studio", "sun", "team", "tech", "the", "time",
        "top", "trade", "tree", "true", "trust", "uni", "up", "via", "view", "vital", "web",
        "west", "wiki", "wise", "work", "world", "youth", "zen", "zone",
    ];
    const SUFFIX: &[u8] = b".org";
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD0_3A15);
    let mut keys: Vec<Vec<u8>> = Vec::with_capacity(n);
    while keys.len() < n {
        let missing = n - keys.len();
        for _ in 0..missing {
            // Name length (without suffix): lognormal around ln(17).
            let z = sample_standard_normal(&mut rng);
            let target = ((17.0f64.ln() + 0.35 * z).exp().round() as usize).clamp(2, 249);
            let mut k: Vec<u8> = Vec::with_capacity(target + SUFFIX.len());
            while k.len() < target {
                let tok = TOKENS[rng.gen_range(0..TOKENS.len())];
                k.extend_from_slice(tok.as_bytes());
                // Occasional separators and digits, like real names.
                match rng.gen_range(0..8u32) {
                    0 if k.len() < target => k.push(b'-'),
                    1 if k.len() < target => k.push(b'0' + rng.gen_range(0..10) as u8),
                    _ => {}
                }
            }
            k.truncate(target);
            if k.ends_with(b"-") {
                k.pop();
            }
            k.extend_from_slice(SUFFIX);
            // Crawled domain sets are full of numbered families
            // (site1.org, site2.org, ...); emit siblings ~40% of the time
            // so near-duplicate names exist, as in the real data.
            if rng.gen_range(0..10u32) < 4 && !keys.is_empty() {
                let base = &keys[rng.gen_range(0..keys.len())];
                if base.len() < 250 {
                    let mut sib = base[..base.len() - SUFFIX.len()].to_vec();
                    sib.push(b'0' + rng.gen_range(0..10) as u8);
                    sib.extend_from_slice(SUFFIX);
                    keys.push(sib);
                }
            }
            keys.push(k);
        }
        keys.sort_unstable();
        keys.dedup();
        keys.truncate(n + (keys.len() - n) / 2); // keep some sibling surplus trimmed evenly
        if keys.len() > n {
            let len = keys.len();
            keys = (0..n).map(|i| keys[i * len / n].clone()).collect();
        }
    }
    keys
}

/// `n` distinct synthetic URLs (`https://<domain>/<segment>…[-<num>]`),
/// sorted lexicographically.
///
/// Every key shares the `https://` scheme prefix and reuses a small
/// domain pool and path-segment dictionary, giving the long common
/// prefixes real crawled URL sets have — the shape that stresses prefix
/// compression in SST blocks and prefix-based filter training. The
/// benchmark harness's `scan_short` workload loads these keys.
pub fn generate_urls(n: usize, seed: u64) -> Vec<Vec<u8>> {
    const SEGMENTS: &[&str] = &[
        "about", "api", "archive", "blog", "cart", "docs", "faq", "feed", "help", "img", "index",
        "items", "news", "page", "post", "search", "shop", "tag", "user", "wiki",
    ];
    assert!(n > 0, "empty URL pool");
    let domains = generate_domains((n / 8).clamp(4, 2048), seed ^ 0x0075_12F5);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0072_11CA);
    let mut keys: Vec<Vec<u8>> = Vec::with_capacity(n + n / 8);
    while keys.len() < n {
        let missing = n - keys.len();
        for _ in 0..missing {
            let mut k = b"https://".to_vec();
            k.extend_from_slice(&domains[rng.gen_range(0..domains.len())]);
            for _ in 0..rng.gen_range(1..=3u32) {
                k.push(b'/');
                k.extend_from_slice(SEGMENTS[rng.gen_range(0..SEGMENTS.len())].as_bytes());
            }
            // Most pages in a crawl are numbered (pagination, ids).
            if rng.gen_range(0..4u32) > 0 {
                k.push(b'-');
                k.extend_from_slice(rng.gen_range(0..1_000_000u64).to_string().as_bytes());
            }
            keys.push(k);
        }
        keys.sort_unstable();
        keys.dedup();
    }
    keys.truncate(n);
    keys
}

/// Add `offset` to a fixed-width big-endian key, saturating at all-ones.
pub fn add_offset(key: &[u8], offset: u64) -> Vec<u8> {
    let mut out = key.to_vec();
    let mut carry = offset as u128;
    for i in (0..out.len()).rev() {
        if carry == 0 {
            break;
        }
        let sum = out[i] as u128 + (carry & 0xFF);
        out[i] = (sum & 0xFF) as u8;
        carry = (carry >> 8) + (sum >> 8);
    }
    if carry > 0 {
        out.iter_mut().for_each(|b| *b = 0xFF);
    }
    out
}

/// String workload generator mirroring [`crate::queries::QueryGen`] for
/// fixed-width canonical string keys.
pub struct StringQueryGen<'a> {
    /// Sorted canonical (padded) keys.
    keys: &'a [Vec<u8>],
    rng: StdRng,
    pub rmax: u64,
    pub corr_degree: u64,
}

impl<'a> StringQueryGen<'a> {
    pub fn new(keys: &'a [Vec<u8>], rmax: u64, corr_degree: u64, seed: u64) -> Self {
        StringQueryGen { keys, rng: StdRng::seed_from_u64(seed ^ 0x5715), rmax, corr_degree }
    }

    fn width(&self) -> usize {
        self.keys.first().map_or(16, |k| k.len())
    }

    fn offset(&mut self) -> u64 {
        if self.rmax < 2 {
            self.rmax
        } else {
            self.rng.gen_range(2..=self.rmax)
        }
    }

    /// Uniform workload: random left bound.
    pub fn uniform(&mut self) -> (Vec<u8>, Vec<u8>) {
        let mut lo = vec![0u8; self.width()];
        self.rng.fill(&mut lo[..]);
        let off = self.offset();
        let hi = add_offset(&lo, off);
        (lo, hi)
    }

    /// Correlated workload: left bound just above a random key.
    pub fn correlated(&mut self) -> (Vec<u8>, Vec<u8>) {
        let key = &self.keys[self.rng.gen_range(0..self.keys.len())];
        let lo = add_offset(key, 1 + self.rng.gen_range(0..self.corr_degree.max(1)));
        let off = self.offset();
        let hi = add_offset(&lo, off);
        (lo, hi)
    }

    /// Split workload: even mix.
    pub fn split(&mut self) -> (Vec<u8>, Vec<u8>) {
        if self.rng.gen::<bool>() {
            self.uniform()
        } else {
            self.correlated()
        }
    }

    /// `count` empty queries from the given generator method.
    pub fn empty_queries(
        &mut self,
        count: usize,
        mut kind: impl FnMut(&mut Self) -> (Vec<u8>, Vec<u8>),
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::with_capacity(count);
        let mut attempts = 0;
        while out.len() < count {
            let (lo, hi) = kind(self);
            attempts += 1;
            assert!(attempts < count * 1000 + 100_000, "cannot find empty string queries");
            let idx = self.keys.partition_point(|k| k.as_slice() < lo.as_slice());
            let overlaps = idx < self.keys.len() && self.keys[idx].as_slice() <= hi.as_slice();
            if !overlaps {
                out.push((lo, hi));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_length_generation() {
        for ds in [StringDataset::Uniform, StringDataset::Normal] {
            let keys = ds.generate(2000, 25, 1);
            assert_eq!(keys.len(), 2000);
            assert!(keys.iter().all(|k| k.len() == 25));
            assert!(keys.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn normal_strings_cluster_in_top_bytes() {
        let keys = StringDataset::Normal.generate(5000, 25, 2);
        // Nearly all keys share a first byte near 128.
        let near_mid = keys.iter().filter(|k| (100..=156).contains(&k[0])).count();
        assert!(near_mid as f64 > 0.95 * keys.len() as f64, "{near_mid}");
    }

    #[test]
    fn domains_look_like_domains() {
        let domains = generate_domains(3000, 3);
        assert_eq!(domains.len(), 3000);
        let mut lens: Vec<usize> = domains.iter().map(|d| d.len()).collect();
        lens.sort_unstable();
        let median = lens[lens.len() / 2];
        assert!((15..=27).contains(&median), "median length {median}");
        assert!(*lens.first().unwrap() >= 5);
        assert!(*lens.last().unwrap() <= 253);
        for d in domains.iter().take(50) {
            assert!(d.ends_with(b".org"));
        }
    }

    #[test]
    fn urls_are_distinct_sorted_and_urlish() {
        let urls = generate_urls(4000, 9);
        assert_eq!(urls.len(), 4000);
        assert!(urls.windows(2).all(|w| w[0] < w[1]), "must be sorted and distinct");
        for u in urls.iter().take(200) {
            assert!(u.starts_with(b"https://"), "{:?}", String::from_utf8_lossy(u));
            let path = &u[b"https://".len()..];
            assert!(path.contains(&b'/'), "URL without a path: {:?}", String::from_utf8_lossy(u));
        }
        // Deterministic across calls with the same seed.
        assert_eq!(urls, generate_urls(4000, 9));
        // Variable lengths, not a fixed-width set in disguise.
        let (min, max) =
            urls.iter().fold((usize::MAX, 0), |(lo, hi), u| (lo.min(u.len()), hi.max(u.len())));
        assert!(max - min >= 10, "length spread too narrow: {min}..{max}");
    }

    #[test]
    fn add_offset_is_big_endian_addition() {
        assert_eq!(add_offset(&[0, 0, 0, 5], 10), vec![0, 0, 0, 15]);
        assert_eq!(add_offset(&[0, 0, 0, 250], 10), vec![0, 0, 1, 4]);
        assert_eq!(add_offset(&[0, 255, 255, 255], 1), vec![1, 0, 0, 0]);
        // Saturation at all-ones.
        assert_eq!(add_offset(&[255, 255, 255, 255], 1), vec![255; 4]);
        // Large offsets spanning several bytes.
        assert_eq!(add_offset(&[0, 0, 0, 0], 1 << 24), vec![1, 0, 0, 0]);
    }

    #[test]
    fn correlated_string_queries_follow_keys() {
        let keys = StringDataset::Normal.generate(1000, 16, 5);
        let mut g = StringQueryGen::new(&keys, 1 << 10, 1 << 8, 6);
        for _ in 0..100 {
            let (lo, hi) = g.correlated();
            assert!(lo < hi);
            assert_eq!(lo.len(), 16);
        }
    }

    #[test]
    fn empty_string_queries_verified() {
        let keys = StringDataset::Uniform.generate(2000, 12, 7);
        let mut g = StringQueryGen::new(&keys, 1 << 20, 1 << 10, 8);
        let qs = g.empty_queries(100, |g| g.split());
        for (lo, hi) in qs {
            let idx = keys.partition_point(|k| k.as_slice() < lo.as_slice());
            assert!(!(idx < keys.len() && keys[idx].as_slice() <= hi.as_slice()));
        }
    }
}
