//! Table 1: Chernoff-bound tail values `e^(-Nδ²/(2p)) + e^(-Nδ²/(3p))` for
//! Nδ² ∈ {1..5} at p ≤ 0.1, plus the §4.3 sample-size examples.
//!
//! Run: `cargo run -p proteus-bench --release --bin table1_chernoff`

use proteus_bench::cli::Args;
use proteus_bench::report::Table;
use proteus_core::sample::{chernoff_tail, fpr_estimate_error_bound, required_sample_size};

fn main() {
    let args = Args::parse(0, 0, 0);

    let mut t = Table::new(
        "Table 1: bounds for e^(-Nδ²/2p) + e^(-Nδ²/3p), p ≤ 0.1",
        &["Ndelta2", "bound", "paper"],
    );
    // Paper-printed values. Rows 2-5 match the formula exactly; the Nδ²=1
    // row prints 0.00425 where e^(-5) + e^(-10/3) = 0.0425, so the paper
    // appears to have dropped a factor of ten there.
    let paper = ["0.00425 (0.0425?)", "0.00132", "0.00005", "0.000002", "0.0000001"];
    for (i, &p) in paper.iter().enumerate() {
        let nd2 = (i + 1) as f64;
        t.row(vec![format!("{nd2}"), format!("{:.7}", chernoff_tail(nd2, 0.1)), p.to_string()]);
    }
    t.finish(args.out.as_deref(), "table1_chernoff");

    let mut t2 =
        Table::new("Sample-size examples (δ = 0.01, p ≤ 0.1)", &["samples", "error_bound"]);
    for n in [10_000usize, 20_000, 50_000] {
        t2.row(vec![n.to_string(), format!("{:.2e}", fpr_estimate_error_bound(n, 0.01, 0.1))]);
    }
    t2.print();

    println!(
        "\nSmallest sample for error ≤ 0.00425 at δ=0.01: {}",
        required_sample_size(0.01, 0.1, 0.00425)
    );
}
