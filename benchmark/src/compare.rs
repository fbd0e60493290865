//! `compare <setA> <setB>`: two sets of result files (directories written
//! by `run.sh`), one row per workload × end-to-end metric, judged against
//! the bounds in `BENCHMARK.json`. No combined score.

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the driver's rule); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// workload → metric → values, from every untraced result file in `dir`.
fn read_set(dir: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut set: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths.iter().filter(|p| p.extension().is_some_and(|x| x == "json")) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let Some(workload) = doc.get("workload").and_then(Json::as_str) else { continue };
        let metrics = doc.get("metrics").map(Json::as_object).unwrap_or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    if set.is_empty() {
        return Err(format!("{} holds no untraced result files", dir.display()));
    }
    Ok(set)
}

struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
}

fn summarise(values: &[f64]) -> Summary {
    match quartiles(values) {
        Some([q1, median, q3]) => Summary { median, q1, q3 },
        None => Summary { median: values[0], q1: values[0], q3: values[0] },
    }
}

impl Summary {
    /// Distance between the quartiles as a share of the median.
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Print the comparison; returns how many rows regressed.
pub fn compare(spec: &Path, a: &Path, b: &Path) -> Result<usize, String> {
    let text =
        std::fs::read_to_string(spec).map_err(|e| format!("reading {}: {e}", spec.display()))?;
    let spec = Json::parse(&text)?;
    let (set_a, set_b) = (read_set(a)?, read_set(b)?);
    println!(
        "{:<13} {:<20} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "bound"
    );
    let mut regressed = 0;
    for w in spec.get("workloads").map(Json::as_array).unwrap_or_default() {
        let Some(workload) = w.get("name").and_then(Json::as_str) else { continue };
        for m in spec.get("end_to_end").map(Json::as_array).unwrap_or_default() {
            let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower_is_better = m.get("better").and_then(Json::as_str) != Some("higher");
            let values = |set: &BTreeMap<String, BTreeMap<String, Vec<f64>>>| {
                set.get(workload).and_then(|ms| ms.get(name)).filter(|v| !v.is_empty()).cloned()
            };
            let (Some(va), Some(vb)) = (values(&set_a), values(&set_b)) else {
                println!("{workload:<13} {name:<20} missing from one of the sets");
                continue;
            };
            let (sa, sb) = (summarise(&va), summarise(&vb));
            // Every ratio with its base: B over A, A being the reference.
            let worse = if sa.median == 0.0 {
                0.0
            } else if lower_is_better {
                (sb.median - sa.median) / sa.median
            } else {
                (sa.median - sb.median) / sa.median
            };
            let verdict = if sa.spread().max(sb.spread()) > bound {
                "unresolved"
            } else if worse > bound {
                regressed += 1;
                "regressed"
            } else {
                "within"
            };
            let cell = |s: &Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            println!(
                "{workload:<13} {name:<20} {:>34} {:>34} {:>8.4} {:>6.2}  {verdict}",
                cell(&sa),
                cell(&sb),
                if sa.median == 0.0 { 1.0 } else { sb.median / sa.median },
                bound
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]).unwrap(), [1.0, 2.0, 3.0]);
        assert!(quartiles(&[1.0]).is_none());
    }
}
