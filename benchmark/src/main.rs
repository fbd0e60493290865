//! `run --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload and prints its metrics; `compare <setA> <setB>` judges two
//! sets of result files against the bounds in `BENCHMARK.json`.

use proteus_benchmark::run::{run, RunArgs};
use proteus_benchmark::{compare, workloads};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  proteus-benchmark run --workload <seek_empty|scan_short|rw_mixed|server_mixed>
                        [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
                        [--out <dir>] [--tag <text>]
  proteus-benchmark compare <setA> <setB> [--spec <BENCHMARK.json>]";

/// `--name value` pairs and bare flags after the sub-command. Unknown
/// flags are an error: a misspelt flag must not silently run the default.
fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        tag: None,
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => run.smoke = true,
            "--out" => run.out = PathBuf::from(value()?),
            "--tag" => run.tag = Some(value()?.clone()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !workloads::NAMES.contains(&run.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    run.seconds = seconds.unwrap_or(if run.smoke { 0.5 } else { 11.0 });
    if !(run.seconds > 0.0 && run.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(run)
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let outcome = run(&args)?;
    let mut stem = args.workload.clone();
    if let Some(tag) = &args.tag {
        stem = format!("{stem}.{tag}");
    }
    if args.trace {
        stem.push_str(".layers");
    }
    let path = args.out.join(format!("{stem}.json"));
    std::fs::write(&path, format!("{}\n", outcome.file))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    println!("# {} seed {} -> {}", args.workload, args.seed, path.display());
    for (name, value, unit) in outcome.metrics.iter() {
        println!("{name:<42} {value:>16.4} {unit}");
    }
    for failure in &outcome.failures {
        eprintln!("FAILED: {failure}");
    }
    println!("{}", outcome.result_line());
    Ok(outcome.correct)
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut sets = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => spec = PathBuf::from(it.next().ok_or("--spec needs a value")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            dir => sets.push(dir),
        }
    }
    let [a, b] = sets[..] else {
        return Err("compare takes exactly two set directories".to_string());
    };
    let regressed = compare::compare(&spec, Path::new(a), Path::new(b))?;
    println!("{regressed} row(s) regressed");
    Ok(regressed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") => compare_command(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
