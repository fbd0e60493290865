//! What the harness reads about the machine and the process from outside
//! the program under test: `/proc`, the data directory, the toolchain.

use std::path::{Path, PathBuf};

fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Hardware threads this process may use.
pub fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// One-minute load average (0 when `/proc/loadavg` is unreadable).
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// `(steal, total)` jiffies of the machine so far, from `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else { return (0, 0) };
    let Some(line) = text.lines().next() else { return (0, 0) };
    let fields: Vec<u64> = line.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().take(8).sum())
}

/// `(minor faults, major faults, user jiffies, system jiffies)` of this
/// process so far, from `/proc/self/stat`: context for a slow round.
pub fn proc_usage() -> [u64; 4] {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else { return [0; 4] };
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest.split_whitespace().map(|v| v.parse().unwrap_or(0)).collect();
    let at = |i: usize| f.get(i).copied().unwrap_or(0);
    [at(7), at(9), at(11), at(12)]
}

/// Resident set of this process now, in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmRSS:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Bytes this process has caused to be written so far.
///
/// `write_bytes` counts pages dirtied towards the storage layer, which is
/// what write amplification is about. Some file systems (tmpfs, some
/// overlays) never account it; there the harness falls back to `wchar`,
/// the bytes handed to `write` calls, so the metric is never zero.
pub fn io_written() -> u64 {
    match proc_field("/proc/self/io", "write_bytes:") {
        Some(b) if b > 0 => b,
        _ => proc_field("/proc/self/io", "wchar:").unwrap_or(0),
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The commit the working directory is at, read from `.git` without
/// running git; `"unknown"` outside a repository (the driver's checkout).
pub fn git_sha() -> String {
    let mut dir: Option<PathBuf> = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
            if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
                return sha.trim().to_string();
            }
            if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
                if let Some(line) = packed.lines().find(|l| l.ends_with(reference)) {
                    return line.split_whitespace().next().unwrap_or("unknown").to_string();
                }
            }
            return "unknown".to_string();
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".to_string()
}

/// `rustc -V` of the toolchain on the path (the child is waited for).
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A directory removed (with everything in it) when dropped, so data
/// directories disappear on success, on error and on panic alike.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn create(path: PathBuf) -> std::io::Result<ScratchDir> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once the last run's directory has left it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
