//! # proteus-server
//!
//! A sharded TCP front-end for the [`proteus_lsm`] store: `N` range-sharded
//! [`proteus_lsm::Db`] instances behind a length-prefixed binary protocol,
//! turning the single-process LSM library into a network service (the
//! benchmark harness's `server_mixed` workload is its load generator).
//!
//! Everything here is `std::net` blocking I/O — no async runtime, no
//! external dependencies — which keeps the crate inside the workspace's
//! vendored-only constraint and makes the threading model trivially
//! auditable:
//!
//! * [`protocol`] — the frame layout, request verbs, response statuses and
//!   typed [`protocol::ErrorCode`]s;
//! * [`router`] — monotone range-sharding of the byte-string key space by
//!   ordered boundary keys (range ops touch a contiguous shard run,
//!   results concatenate already sorted);
//! * [`server`] — the accept loop, thread-per-connection dispatch, and the
//!   graceful-shutdown ordering contract (drain, join, then let
//!   [`proteus_lsm::Db`]'s drop run the final WAL sync);
//! * [`client`] — a minimal blocking client used by the tests, examples
//!   and the load generator.
//!
//! ## Quickstart
//!
//! ```no_run
//! use proteus_server::{Client, Server};
//! use std::sync::Arc;
//!
//! let server = Server::start(
//!     "/tmp/proteus-shards",
//!     ("127.0.0.1", 0), // port 0: pick a free port
//!     4,                // shards
//!     proteus_lsm::DbConfig::default(),
//!     Arc::new(proteus_lsm::ProteusFactory::default()),
//! )?;
//!
//! let mut c = Client::connect(server.local_addr())?;
//! c.put(&7u64.to_be_bytes(), b"value")?;
//! assert_eq!(c.get(&7u64.to_be_bytes())?, Some(b"value".to_vec()));
//! drop(server); // graceful: drain, join, final WAL sync per shard
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod router;
pub mod server;

pub use client::{Client, ClientError};
pub use protocol::{Error, ErrorCode, Request, Response, ShardStats};
pub use router::Router;
pub use server::Server;
