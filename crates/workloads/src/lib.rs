//! # proteus-workloads
//!
//! Synthetic datasets and query workload generators reproducing the
//! evaluation inputs of the Proteus paper:
//!
//! * [`datasets`] — the four integer key distributions of §5 (Uniform,
//!   Normal, and SOSD-like Books / Facebook synthetics);
//! * [`queries`] — YCSB-E-style range workloads (Uniform / Correlated /
//!   Split / Real / Point) with emptiness certification;
//! * [`strings`] — §7.2 string keys (fixed-length Uniform/Normal, synthetic
//!   `.org` domains) and big-endian string range arithmetic;
//! * [`values`] — §6.2 half-zero value payloads for the LSM experiments;
//! * [`zipf`] — scrambled zipfian key popularity, the skew the benchmark
//!   harness's `scan_short`, `rw_mixed` and `server_mixed` workloads draw
//!   keys with.

pub mod datasets;
pub mod queries;
pub mod strings;
pub mod values;
pub mod zipf;

pub use datasets::Dataset;
pub use queries::{QueryGen, Workload, DEFAULT_CORR_DEGREE};
pub use strings::{generate_domains, generate_urls, StringDataset, StringQueryGen};
pub use values::value_for_key;
pub use zipf::Zipfian;
