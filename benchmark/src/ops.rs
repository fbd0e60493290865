//! The operations a round is made of, the values the harness writes, and
//! the loop that issues operations against a store or a server connection,
//! times each one and checks its answer against the expectation computed
//! when the operation was generated.

use crate::trace::OpSpan;
use proteus_lsm::Db;
use proteus_server::Client;
use std::time::Instant;

/// Every value the harness writes is this long (key + value = 136 B for
/// `u64` keys).
pub const VALUE_LEN: usize = 128;

pub type Key = Vec<u8>;

/// One generated operation with the answer the oracle expects.
#[derive(Debug, Clone)]
pub enum Op {
    /// Exact-key read. `expect` is `None` for an absent key, otherwise
    /// the version the value must carry (`Some(None)`: present, version
    /// owned by another client, so only the value's integrity is checked).
    Get { key: Key, expect: Option<Option<u32>> },
    /// Write `value_of(key, version)`.
    Put { key: Key, version: u32 },
    /// Closed-range emptiness probe.
    Seek { lo: Key, hi: Key, expect: bool },
    /// Ordered scan from `lo` (to `hi`, or unbounded) of at most `limit`
    /// rows; must return exactly `table[first..first + rows]`.
    Scan { lo: Key, hi: Option<Key>, limit: u32, first: u32, rows: u32 },
}

/// Index of an operation's kind in per-kind arrays.
pub const KINDS: usize = 4;
pub const GET: usize = 0;
pub const PUT: usize = 1;
pub const SEEK: usize = 2;
pub const SCAN: usize = 3;

impl Op {
    pub fn kind(&self) -> usize {
        match self {
            Op::Get { .. } => GET,
            Op::Put { .. } => PUT,
            Op::Seek { .. } => SEEK,
            Op::Scan { .. } => SCAN,
        }
    }
}

/// SplitMix64: the harness's cheap deterministic byte source.
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a of the key bytes: ties a value to the key it was written under.
fn key_hash(key: &[u8]) -> u64 {
    key.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// The value stored under `key` at `version`: first half zero, second half
/// the version followed by bytes derived from `(key, version)` — the
/// paper's §6.2 half-compressible payload, made self-describing so a
/// wrong, torn or misplaced value is detectable from the value alone.
pub fn fill_value(buf: &mut [u8; VALUE_LEN], key: &[u8], version: u32) {
    buf[..VALUE_LEN / 2].fill(0);
    buf[64..72].copy_from_slice(&(version as u64).to_le_bytes());
    let mut s = key_hash(key) ^ (version as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    for chunk in buf[72..].chunks_exact_mut(8) {
        chunk.copy_from_slice(&splitmix(&mut s).to_le_bytes());
    }
}

/// Is `got` the value the harness writes under `key`, at `version` when
/// the version is known?
pub fn check_value(key: &[u8], got: &[u8], version: Option<u32>) -> bool {
    if got.len() != VALUE_LEN {
        return false;
    }
    let mut tag = [0u8; 8];
    tag.copy_from_slice(&got[64..72]);
    let Ok(stored) = u32::try_from(u64::from_le_bytes(tag)) else { return false };
    if version.is_some_and(|v| v != stored) {
        return false;
    }
    let mut want = [0u8; VALUE_LEN];
    fill_value(&mut want, key, stored);
    got == want
}

pub type Rows = Vec<(Vec<u8>, Vec<u8>)>;

/// What operations are issued against: the embedded store or one server
/// connection. Errors are flattened to strings; any error fails the op.
pub trait Target {
    /// Span names for `[get, put, seek, scan]`.
    const NAMES: [&'static str; KINDS];
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, String>;
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), String>;
    fn seek(&mut self, lo: &[u8], hi: &[u8]) -> Result<bool, String>;
    fn scan(&mut self, lo: &[u8], hi: Option<&[u8]>, limit: u32) -> Result<Rows, String>;
}

impl Target for &Db {
    const NAMES: [&'static str; KINDS] = ["lsm.get", "lsm.put", "lsm.seek", "lsm.scan"];

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
        Db::get(self, key).map_err(|e| e.to_string())
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), String> {
        Db::put(self, key, value).map_err(|e| e.to_string())
    }

    fn seek(&mut self, lo: &[u8], hi: &[u8]) -> Result<bool, String> {
        Db::seek(self, lo, hi).map_err(|e| e.to_string())
    }

    fn scan(&mut self, lo: &[u8], hi: Option<&[u8]>, limit: u32) -> Result<Rows, String> {
        let iter = match hi {
            Some(hi) => self.range(lo..=hi),
            None => self.range(lo..),
        };
        iter.map_err(|e| e.to_string())?
            .take(limit as usize)
            .collect::<proteus_lsm::Result<Rows>>()
            .map_err(|e| e.to_string())
    }
}

impl Target for Client {
    const NAMES: [&'static str; KINDS] = ["server.get", "server.put", "server.seek", "server.scan"];

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
        Client::get(self, key).map_err(|e| e.to_string())
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), String> {
        Client::put(self, key, value).map_err(|e| e.to_string())
    }

    fn seek(&mut self, lo: &[u8], hi: &[u8]) -> Result<bool, String> {
        Client::seek(self, lo, hi).map_err(|e| e.to_string())
    }

    fn scan(&mut self, lo: &[u8], hi: Option<&[u8]>, limit: u32) -> Result<Rows, String> {
        // The protocol's scans are closed ranges; unbounded is the largest
        // key the server accepts at the width the harness uses.
        const MAX_KEY: [u8; 8] = [0xFF; 8];
        Client::scan(self, lo, hi.unwrap_or(&MAX_KEY), limit)
            .map(|(rows, _more)| rows)
            .map_err(|e| e.to_string())
    }
}

/// What one client recorded over one round.
#[derive(Debug, Default)]
pub struct Tally {
    /// Latency of every op in issue order, nanoseconds.
    pub lat_ns: Vec<u32>,
    /// Per-op spans, only in a traced round.
    pub spans: Vec<OpSpan>,
    /// Ops whose call failed or whose answer differed from the oracle.
    pub failed: u64,
    /// First few failures, for the error message.
    pub failures: Vec<String>,
    /// Rows returned by scans.
    pub scan_rows: u64,
    /// Answers compared with the oracle.
    pub checks: u64,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Add another tally's counts and failures (not its latencies).
    pub fn add_counts(&mut self, other: &Tally) {
        self.failed += other.failed;
        self.failures.extend(other.failures.iter().cloned());
        self.failures.truncate(5);
        self.scan_rows += other.scan_rows;
        self.checks += other.checks;
    }

    /// Fold another client's tally of the same round into this one.
    pub fn merge(&mut self, other: Tally) {
        self.add_counts(&other);
        self.lat_ns.extend(other.lat_ns);
        self.spans.extend(other.spans);
    }
}

fn hex(key: &[u8]) -> String {
    match std::str::from_utf8(key) {
        Ok(s) if s.bytes().all(|b| b.is_ascii_graphic()) => s.to_string(),
        _ => key.iter().map(|b| format!("{b:02x}")).collect(),
    }
}

/// Issue `ops` in order as one closed-loop client: each op is sent only
/// after the previous one returned. Each op is timed on its own; its
/// answer is checked between ops, outside the op's own time. `table` is
/// the sorted key set scans are checked against. With `traced`, every op
/// also leaves a span measured from `epoch`.
pub fn issue<T: Target>(
    target: &mut T,
    ops: &[Op],
    table: &[Key],
    traced: bool,
    epoch: Instant,
) -> Tally {
    let mut tally = Tally { lat_ns: Vec::with_capacity(ops.len()), ..Tally::default() };
    if traced {
        tally.spans.reserve(ops.len());
    }
    let mut value = [0u8; VALUE_LEN];
    for op in ops {
        if let Op::Put { key, version } = op {
            fill_value(&mut value, key, *version);
        }
        let start = Instant::now();
        let verdict: Result<(), String> = match op {
            Op::Get { key, expect } => {
                let got = target.get(key);
                tally.lat_ns.push(start.elapsed().as_nanos() as u32);
                match (got, expect) {
                    (Err(e), _) => Err(format!("get {}: {e}", hex(key))),
                    (Ok(None), None) => Ok(()),
                    (Ok(Some(v)), Some(version)) if check_value(key, &v, *version) => Ok(()),
                    (Ok(Some(_)), Some(_)) => {
                        Err(format!("get {}: wrong or stale value", hex(key)))
                    }
                    (Ok(Some(_)), None) => Err(format!("get {}: resurrected key", hex(key))),
                    (Ok(None), Some(_)) => Err(format!("get {}: live key missing", hex(key))),
                }
            }
            Op::Put { key, .. } => {
                let got = target.put(key, &value);
                tally.lat_ns.push(start.elapsed().as_nanos() as u32);
                got.map_err(|e| format!("put {}: {e}", hex(key)))
            }
            Op::Seek { lo, hi, expect } => {
                let got = target.seek(lo, hi);
                tally.lat_ns.push(start.elapsed().as_nanos() as u32);
                match got {
                    Err(e) => Err(format!("seek {}: {e}", hex(lo))),
                    Ok(found) if found == *expect => Ok(()),
                    Ok(false) => Err(format!("seek [{}, {}]: false negative", hex(lo), hex(hi))),
                    Ok(true) => Err(format!(
                        "seek [{}, {}]: found a key in an empty range",
                        hex(lo),
                        hex(hi)
                    )),
                }
            }
            Op::Scan { lo, hi, limit, first, rows } => {
                let got = target.scan(lo, hi.as_deref(), *limit);
                tally.lat_ns.push(start.elapsed().as_nanos() as u32);
                match got {
                    Err(e) => Err(format!("scan {}: {e}", hex(lo))),
                    Ok(got) => {
                        tally.scan_rows += got.len() as u64;
                        let want = &table[*first as usize..(*first + *rows) as usize];
                        let same = got.len() == want.len()
                            && got
                                .iter()
                                .zip(want)
                                .all(|((k, v), w)| k == w && check_value(k, v, None));
                        if same {
                            Ok(())
                        } else {
                            Err(format!(
                                "scan {}: {} rows, expected {} (missing, unsorted or damaged row)",
                                hex(lo),
                                got.len(),
                                want.len()
                            ))
                        }
                    }
                }
            }
        };
        tally.checks += 1;
        if traced {
            let s = (start - epoch).as_nanos() as u64;
            let d = *tally.lat_ns.last().unwrap_or(&0) as u64;
            tally.spans.push((T::NAMES[op.kind()], s, s + d));
        }
        if let Err(what) = verdict {
            tally.fail(what);
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_describe_themselves() {
        let mut v = [0u8; VALUE_LEN];
        fill_value(&mut v, b"key-a", 3);
        assert!(v[..64].iter().all(|&b| b == 0), "first half compressible");
        assert!(check_value(b"key-a", &v, Some(3)));
        assert!(check_value(b"key-a", &v, None));
        assert!(!check_value(b"key-a", &v, Some(2)), "stale version");
        assert!(!check_value(b"key-b", &v, None), "value filed under another key");
        v[100] ^= 1;
        assert!(!check_value(b"key-a", &v, None), "damaged byte");
        assert!(!check_value(b"key-a", &v[..100], None), "short value");
    }
}
