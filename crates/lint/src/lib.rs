//! # proteus-lint
//!
//! The workspace's own static-analysis pass: a zero-dependency scanner
//! that parses every non-vendored `.rs` file with a small hand-rolled
//! lexer (no `syn` — the build is offline) and enforces the project
//! invariants that `rustc` and `clippy` cannot see:
//!
//! * **`no-panic`** — no `.unwrap()` / `.expect()` / `panic!` in
//!   non-test code of the library crates;
//! * **`raw-sync`** — no raw `std::sync::{Mutex, RwLock, Condvar}`
//!   outside `crates/core/src/sync.rs` (every lock must carry a
//!   lock-doctor rank);
//! * **`io-result-pub`** — no `std::io::Result` in `pub fn` signatures;
//! * **`magic-needs-golden`** — every on-disk magic/`FORMAT_VERSION`
//!   constant is referenced by at least one golden-fixture test;
//! * **`truncating-cast`** — no truncating `as` casts in the
//!   `codec.rs`/`wal.rs`/`block.rs`/`protocol.rs` wire paths.
//!
//! Every finding fails the run. An intentional site carries an in-place
//! `// lint: allow(<rule>): reason` waiver, the one way to excuse it.
//!
//! Run it as `cargo run -p proteus-lint` (exit code 1 on any finding) or
//! via the `workspace_is_lint_clean` integration test.

pub mod lexer;
pub mod rules;

pub use lexer::SourceFile;
pub use rules::Violation;

use std::path::Path;

/// Directories never scanned: third-party sources, build output, VCS.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", ".claude", "related"];

/// The outcome of a full run: what to print and how to exit.
pub struct Report {
    /// Every finding; the tree is clean when there are none.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Did the tree pass?
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Recursively collect `.rs` files under `root`, skipping [`SKIP_DIRS`].
fn collect_files(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<std::io::Result<Vec<_>>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let text = std::fs::read_to_string(&path)?;
            let rel = path.strip_prefix(root).unwrap_or(&path);
            // Normalize to `/` so reported paths are portable.
            let rel = rel.to_string_lossy().replace('\\', "/");
            out.push(SourceFile::parse(rel, text));
        }
    }
    Ok(())
}

/// Scan the workspace at `root`.
pub fn run(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_files(root, root, &mut files)?;
    Ok(Report { violations: rules::run_all(&files), files_scanned: files.len() })
}
