//! `cargo run -p proteus-lint`: scan the workspace, print findings,
//! exit 1 on any violation.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    // The crate lives at `<root>/crates/lint`; the workspace root is two
    // levels up. An explicit argument overrides (useful for testing the
    // binary against another tree).
    let root = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."), PathBuf::from);
    let report = match proteus_lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("proteus-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    for v in &report.violations {
        println!("{v}");
    }
    if report.clean() {
        println!("proteus-lint: {} files clean", report.files_scanned);
        ExitCode::SUCCESS
    } else {
        println!(
            "proteus-lint: {} violation(s) across {} files",
            report.violations.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}
