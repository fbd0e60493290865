//! Figure 5: "Proteus optimally configures its design on diverse workloads
//! with varying range sizes and memory budgets."
//!
//! Grid: dataset-workload rows × query-type columns (point / small range /
//! large range / mixed) × BPK 8–18, comparing Proteus against the best
//! SuRF configuration and sample-tuned Rosetta.
//!
//! Run: `cargo run -p proteus-bench --release --bin fig5_design_space`

use proteus_bench::build::{build_filter, FilterKind};
use proteus_bench::cli::Args;
use proteus_bench::report::{fpr, Table};
use proteus_bench::{measure_fpr, scenario};
use proteus_workloads::Workload;

/// The four query-type columns of Fig. 5, parameterized like §5.2.
fn columns() -> Vec<(&'static str, u64)> {
    // (name, rmax): point queries use rmax 0; "mixed" is built separately.
    vec![("point", 0), ("small", 1 << 7), ("large", 1 << 15), ("mixed", 1 << 7)]
}

fn workload_for(base: &Workload, qtype: &str, rmax: u64) -> Workload {
    let sized = |r: u64| match base {
        Workload::Uniform { .. } => Workload::Uniform { rmax: r },
        Workload::Correlated { corr_degree, .. } => {
            Workload::Correlated { rmax: r, corr_degree: *corr_degree }
        }
        Workload::Split { corr_degree, .. } => Workload::Split {
            uniform_rmax: r,
            correlated_rmax: r.clamp(2, 64),
            corr_degree: *corr_degree,
        },
        // Real workloads draw bounds from the dataset itself; on dense
        // datasets (Facebook) wide ranges are never empty, so cap the
        // range size at a width where empty queries exist.
        Workload::Real { .. } => Workload::Real { rmax: r.min(1 << 10) },
        Workload::Point => Workload::Point,
    };
    match qtype {
        // Point queries: offset 0 — approximate with rmax 2 on correlated
        // kinds so bounds still derive from the base distribution, and
        // exact points for uniform/real.
        "point" => sized(2),
        "mixed" => sized(rmax), // mixed = the workload's own split of sizes
        _ => sized(rmax),
    }
}

fn main() {
    let args = Args::parse(200_000, 20_000, 10_000);
    let kinds = [FilterKind::Proteus, FilterKind::SurfBest, FilterKind::Rosetta];

    let mut t = Table::new(
        &format!("Figure 5: FPR vs BPK grid ({} keys)", args.keys),
        &["row", "qtype", "bpk", "filter", "fpr", "actual_bpk"],
    );

    for (dataset, base_workload, row_name) in scenario::fig5_rows(1 << 15) {
        for (qtype, rmax) in columns() {
            // "mixed": an even split of point and small-range queries is
            // modeled by Split for uniform rows and by the base workload
            // with small rmax otherwise.
            let workload = if qtype == "mixed" {
                match &base_workload {
                    Workload::Uniform { .. } => Workload::Split {
                        uniform_rmax: 1 << 7,
                        correlated_rmax: 2,
                        corr_degree: 1 << 10,
                    },
                    other => workload_for(other, "mixed", rmax),
                }
            } else {
                workload_for(&base_workload, qtype, rmax)
            };
            let sc = scenario::setup(
                dataset,
                &workload,
                args.keys,
                args.samples,
                args.queries,
                args.seed,
            );
            for &bpk in &args.bpk {
                let m_bits = args.keys as u64 * bpk;
                for kind in kinds {
                    let (value, actual) =
                        match build_filter(kind, &sc.keyset, &sc.samples, &sc.eval, m_bits) {
                            Some(f) => (
                                measure_fpr(f.as_ref(), &sc.eval),
                                f.size_bits() as f64 / args.keys as f64,
                            ),
                            None => (f64::NAN, f64::NAN),
                        };
                    t.row(vec![
                        row_name.to_string(),
                        qtype.to_string(),
                        bpk.to_string(),
                        kind.name().to_string(),
                        format!("{value:.5}"),
                        format!("{actual:.1}"),
                    ]);
                }
            }
            // Console summary per cell at the middle budget.
            let mid = args.bpk[args.bpk.len() / 2];
            let summary: Vec<String> = t
                .rows()
                .iter()
                .rev()
                .take(kinds.len() * args.bpk.len())
                .filter(|r| r[2] == mid.to_string())
                .map(|r| format!("{}={}", r[3], fpr(r[4].parse().unwrap_or(f64::NAN))))
                .collect();
            println!("{row_name:>20} {qtype:<6} @{mid}bpk: {}", summary.join("  "));
        }
    }
    t.finish(args.out.as_deref(), "fig5_design_space");
}
