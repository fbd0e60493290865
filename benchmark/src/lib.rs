//! The benchmark this repository's performance and simplicity changes are
//! judged by. See `README.md` beside this package and `BENCHMARK.json` at
//! the repository root.
//!
//! Everything here measures the program from outside: through the public
//! functions of the workspace crates and deltas of `Db::stats()`. The
//! layers are the workspace's crates — `succinct`, `amq`, `core`,
//! `filters`, `workloads`, `lsm`, `server`.

pub mod compare;
pub mod json;
pub mod ops;
pub mod replay;
pub mod run;
pub mod spec;
pub mod sys;
pub mod trace;
pub mod workloads;
