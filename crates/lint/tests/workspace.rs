//! Runs the full lint pass over the real workspace as part of `cargo
//! test`, so a violation fails CI even when nobody invokes the binary by
//! hand.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let report = proteus_lint::run(&root).expect("lint pass runs");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}); did the crate layout move?",
        report.files_scanned
    );
    for v in &report.violations {
        eprintln!("{v}");
    }
    assert!(report.clean(), "proteus-lint found {} violation(s)", report.violations.len());
}
