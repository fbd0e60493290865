//! Experiment output: aligned console tables plus one CSV file per table,
//! `<out dir>/<table name>.csv` (the directory defaults to `results/`).

use std::fs;
use std::io::Write;
use std::path::Path;

/// A simple column-aligned table that also serializes to CSV.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: &str, header: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Read back the accumulated rows (used for summaries).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Print to stdout with aligned columns.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            println!("  {}", padded.join("  "));
        };
        line(&self.header);
        line(&vec!["-".repeat(3); self.header.len()]);
        for row in &self.rows {
            line(row);
        }
    }

    /// Write CSV to `path` (creating parent directories).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut f = fs::File::create(path)?;
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(())
    }

    /// Print, then write the CSV to `<out_dir>/<name>.csv`, with
    /// `out_dir` defaulting to `results`. A binary that finishes several
    /// tables into one `--out` directory leaves one file per table.
    pub fn finish(&self, out_dir: Option<&str>, name: &str) {
        self.print();
        let path = Path::new(out_dir.unwrap_or("results")).join(format!("{name}.csv"));
        match self.write_csv(&path) {
            Ok(()) => println!("  -> {}", path.display()),
            Err(e) => eprintln!("  (csv write failed: {e})"),
        }
    }
}

/// Format an FPR for display.
pub fn fpr(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if v >= 0.01 {
        format!("{v:.3}")
    } else {
        format!("{v:.2e}")
    }
}

/// Format milliseconds.
pub fn ms(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_finished_into_one_out_dir_leave_one_file_each() {
        let dir = std::env::temp_dir().join(format!("proteus-report-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let out = dir.to_str().expect("utf-8 temp dir");
        for (name, v) in [("first", "1"), ("second", "2")] {
            let mut t = Table::new(name, &["v"]);
            t.row(vec![v.to_string()]);
            t.finish(Some(out), name);
        }
        let first = fs::read_to_string(dir.join("first.csv")).expect("first table kept");
        let second = fs::read_to_string(dir.join("second.csv")).expect("second table written");
        assert_eq!((first.as_str(), second.as_str()), ("v\n1\n", "v\n2\n"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
