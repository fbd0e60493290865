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
//! * [`zipf`] — YCSB-style zipfian popularity sampling for skewed load
//!   (the YCSB mixes and the benchmark harness's server workload);
//! * [`ycsb`] — the YCSB core mixes A–F over zipfian / latest / hotspot
//!   request distributions and u64 / URL key spaces (`fig_ycsb`).

pub mod datasets;
pub mod queries;
pub mod strings;
pub mod values;
pub mod ycsb;
pub mod zipf;

pub use datasets::Dataset;
pub use queries::{QueryGen, Workload, DEFAULT_CORR_DEGREE};
pub use strings::{generate_domains, generate_urls, StringDataset, StringQueryGen};
pub use values::value_for_key;
pub use ycsb::{Distribution, KeySpace, Mix, Ycsb, YcsbOp, MAX_SCAN_LEN};
pub use zipf::Zipfian;
