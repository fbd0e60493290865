//! Runs every workload at 1/50 scale, traced and untraced, through the
//! real binary and checks the contract: the printed metric names are
//! exactly the lists in `BENCHMARK.json`, every value is finite, and no
//! answer differed from the oracle.

use proteus_benchmark::json::Json;
use proteus_benchmark::spec::{END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::Command;

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .expect("list present")
        .as_array()
        .iter()
        .map(|m| {
            let field =
                |k| m.get(k).and_then(Json::as_str).unwrap_or_else(|| panic!("{list}: no `{k}`"));
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn names(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn benchmark_json_lists_what_the_harness_prints() {
    let spec = spec();
    assert_eq!(listed(&spec, "end_to_end"), names(END_TO_END));
    assert_eq!(listed(&spec, "per_layer"), names(PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .unwrap()
        .as_array()
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    assert_eq!(workloads, proteus_benchmark::workloads::NAMES);
}

#[test]
fn smoke_run_prints_exactly_the_listed_metrics() {
    let spec = spec();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let started = std::time::Instant::now();
    for workload in proteus_benchmark::workloads::NAMES {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = Command::new(env!("CARGO_BIN_EXE_proteus-benchmark"))
                .args(["run", "--smoke", "--workload", workload, "--seed", "7", "--trace", trace])
                .arg("--out")
                .arg(&out)
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&run.stdout);
            assert!(
                run.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&run.stderr)
            );
            let line = stdout.lines().last().expect("a result line");
            let result = Json::parse(line).unwrap_or_else(|e| panic!("{workload}: {e}: {line}"));
            let keys: Vec<&str> = result.as_object().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0), "{workload}");
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);

            let printed: Vec<(String, String)> = result
                .get("metrics")
                .unwrap()
                .as_object()
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64);
                    assert!(value.is_some_and(f64::is_finite), "{workload}: {name} = {value:?}");
                    (name.clone(), m.get("unit").and_then(Json::as_str).unwrap().to_string())
                })
                .collect();
            assert_eq!(printed, listed(&spec, list), "{workload} --trace {trace}");
        }
    }
    println!(
        "smoke: all workloads, traced and untraced, in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    let _ = std::fs::remove_dir_all(&out);
}
