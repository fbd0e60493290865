//! Facade crate re-exporting the full Proteus workspace.
//!
//! See the individual crates for details:
//! - [`proteus_core`] (re-exported as `core`) — Proteus filter + CPFPR model
//! - [`proteus_filters`] (`filters`) — SuRF and Rosetta baselines
//! - [`proteus_amq`] (`amq`) — Bloom filter variants and hashing
//! - [`proteus_succinct`] (`succinct`) — rank/select bit vectors, LOUDS-DS trie
//! - [`proteus_lsm`] (`lsm`) — LSM-tree key-value store harness
//! - [`proteus_server`] (`server`) — sharded TCP front-end + wire protocol
//! - [`proteus_workloads`] (`workloads`) — datasets and query generators

pub use proteus_amq as amq;
pub use proteus_core as core;
pub use proteus_filters as filters;
pub use proteus_lsm as lsm;
pub use proteus_server as server;
pub use proteus_succinct as succinct;
pub use proteus_workloads as workloads;

// The embeddable-store surface (API v2), re-exported at the facade root
// so `proteus::Db` + `proteus::WriteBatch` is all an application needs.
pub use proteus_lsm::{Db, DbConfig, DbConfigBuilder, RangeIter, WriteBatch};

// The network surface: run the store as a service (`proteus::Server`) or
// talk to one (`proteus::Client`).
pub use proteus_server::{Client, Server};
