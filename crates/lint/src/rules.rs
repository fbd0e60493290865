//! The rule scanners. Each rule walks the masked text of a
//! [`SourceFile`] (comments and literals already blanked, test spans
//! already marked) and emits [`Violation`]s; a `// lint: allow(<rule>):
//! reason` comment on the offending line or the line above suppresses a
//! site permanently (waivers are for sites where the pattern is the
//! point, e.g. the lock-doctor's own diagnostic panics).

use crate::lexer::SourceFile;

/// One rule finding.
#[derive(Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule slug (the name waivers refer to).
    pub rule: &'static str,
    /// Repo-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable detail.
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.msg)
    }
}

/// The library crates whose `src/` trees the code rules police. The
/// bench/paper-figure crates and this lint crate itself are exempt:
/// they are experiment drivers, not the durable system.
pub const LIB_SRC: &[&str] = &[
    "crates/core/src",
    "crates/succinct/src",
    "crates/amq/src",
    "crates/filters/src",
    "crates/lsm/src",
    "crates/server/src",
];

/// The sanctioned home of raw `std::sync` primitives (the lock-doctor
/// wrappers themselves).
pub const SYNC_MODULE: &str = "crates/core/src/sync.rs";

/// File names whose contents are on-disk or on-wire encode/decode paths,
/// where a silently truncating `as` cast corrupts data instead of
/// failing.
pub const WIRE_FILES: &[&str] = &["codec.rs", "wal.rs", "block.rs", "protocol.rs"];

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn in_lib_src(path: &str) -> bool {
    LIB_SRC.iter().any(|p| path.starts_with(p))
}

/// Byte offsets of every occurrence of `needle` in `hay` whose
/// neighbours satisfy the given boundary checks.
fn find_token(hay: &[u8], needle: &[u8], bound_left: bool, bound_right: bool) -> Vec<usize> {
    let mut hits = Vec::new();
    let mut i = 0;
    while i + needle.len() <= hay.len() {
        if &hay[i..i + needle.len()] == needle {
            let left_ok = !bound_left || i == 0 || !is_ident(hay[i - 1]);
            let right_ok =
                !bound_right || i + needle.len() >= hay.len() || !is_ident(hay[i + needle.len()]);
            if left_ok && right_ok {
                hits.push(i);
            }
            i += needle.len();
        } else {
            i += 1;
        }
    }
    hits
}

fn push(out: &mut Vec<Violation>, f: &SourceFile, rule: &'static str, off: usize, msg: String) {
    let line = f.line_of(off);
    if f.waived(line, rule) {
        return;
    }
    out.push(Violation { rule, path: f.path.display().to_string(), line, msg });
}

/// Rule `no-panic`: no `.unwrap()` / `.expect(` / `panic!` in non-test
/// code of the library crates. Failures must flow through typed errors;
/// a panic in the store is a lost WAL sync for every shard sharing the
/// process.
pub fn no_panic(f: &SourceFile, out: &mut Vec<Violation>) {
    let path = f.path.display().to_string();
    if !in_lib_src(&path) {
        return;
    }
    for (needle, what) in [
        (&b".unwrap()"[..], "`.unwrap()`"),
        (&b".expect("[..], "`.expect()`"),
        (&b"panic!"[..], "`panic!`"),
    ] {
        let bound_left = needle[0] != b'.';
        for off in find_token(&f.masked, needle, bound_left, false) {
            if f.in_test(off) {
                continue;
            }
            push(
                out,
                f,
                "no-panic",
                off,
                format!("{what} in non-test library code; return a typed `Error` instead"),
            );
        }
    }
}

/// Rule `raw-sync`: no raw `std::sync::{Mutex, RwLock, Condvar}` outside
/// the sanctioned sync module — every lock must carry a rank so the
/// lock-doctor can order-check it.
pub fn raw_sync(f: &SourceFile, out: &mut Vec<Violation>) {
    let path = f.path.display().to_string();
    if !in_lib_src(&path) || path == SYNC_MODULE {
        return;
    }
    for prim in ["Mutex", "RwLock", "Condvar"] {
        let needle = format!("std::sync::{prim}");
        for off in find_token(&f.masked, needle.as_bytes(), true, true) {
            if f.in_test(off) {
                continue;
            }
            push(
                out,
                f,
                "raw-sync",
                off,
                format!(
                    "raw `std::sync::{prim}` outside `{SYNC_MODULE}`; use the ranked \
                     `proteus_core::sync::{prim}` wrapper"
                ),
            );
        }
    }
}

/// Rule `io-result-pub`: `pub fn` signatures must not expose
/// `std::io::Result` — callers need the crate's typed error to tell
/// corruption from I/O from misconfiguration.
pub fn io_result_pub(f: &SourceFile, out: &mut Vec<Violation>) {
    let path = f.path.display().to_string();
    if !in_lib_src(&path) {
        return;
    }
    let m = &f.masked;
    for off in find_token(m, b"pub", true, true) {
        if f.in_test(off) {
            continue;
        }
        let Some(fn_off) = fn_after_vis(m, off + 3) else { continue };
        // Signature: everything up to the body `{` or the `;` of a trait
        // method declaration.
        let mut end = fn_off;
        while end < m.len() && m[end] != b'{' && m[end] != b';' {
            end += 1;
        }
        if find_token(&m[fn_off..end], b"io::Result", true, false).is_empty() {
            continue;
        }
        push(
            out,
            f,
            "io-result-pub",
            fn_off,
            "`pub fn` signature exposes `std::io::Result`; use the crate's typed `Result`"
                .to_string(),
        );
    }
}

/// After a `pub` keyword at `i`, skip an optional `(crate)`-style
/// restriction and the `const`/`unsafe`/`async`/`extern "…"` qualifiers;
/// return the offset of a `fn` keyword if this is a function item.
fn fn_after_vis(m: &[u8], mut i: usize) -> Option<usize> {
    let skip_ws = |m: &[u8], i: usize| {
        let mut i = i.min(m.len());
        while i < m.len() && m[i].is_ascii_whitespace() {
            i += 1;
        }
        i
    };
    i = skip_ws(m, i);
    if m.get(i) == Some(&b'(') {
        while i < m.len() && m[i] != b')' {
            i += 1;
        }
        i = skip_ws(m, i + 1);
    }
    loop {
        if m[i..].starts_with(b"fn") && m.get(i + 2).is_none_or(|b| !is_ident(*b)) {
            return Some(i);
        }
        let qualifiers: &[&[u8]] = &[b"const", b"unsafe", b"async", b"extern"];
        let q = qualifiers
            .iter()
            .find(|q| m[i..].starts_with(q) && m.get(i + q.len()).is_none_or(|b| !is_ident(*b)))?;
        i = skip_ws(m, i + q.len());
        // `extern "C"` ABI string is masked to spaces already.
    }
}

/// A magic/`FORMAT_VERSION` constant declaration found by
/// [`collect_magic`].
pub struct MagicConst {
    /// The constant's identifier.
    pub name: String,
    /// Repo-relative declaring file.
    pub path: String,
    /// 1-based declaration line.
    pub line: usize,
}

/// Phase 1 of rule `magic-needs-golden`: collect every on-disk
/// magic/version constant declared in non-test library code.
pub fn collect_magic(f: &SourceFile, out: &mut Vec<MagicConst>) {
    let path = f.path.display().to_string();
    if !in_lib_src(&path) {
        return;
    }
    let m = &f.masked;
    for off in find_token(m, b"const", true, true) {
        if f.in_test(off) {
            continue;
        }
        let mut i = off + 5;
        while i < m.len() && m[i].is_ascii_whitespace() {
            i += 1;
        }
        let start = i;
        while i < m.len() && is_ident(m[i]) {
            i += 1;
        }
        // Only a declaration (`const NAME:`) counts, not `as const` etc.
        if m.get(i) != Some(&b':') {
            continue;
        }
        let name = String::from_utf8_lossy(&m[start..i]).to_string();
        if name.contains("MAGIC") || name.contains("FORMAT_VERSION") {
            out.push(MagicConst { name, path: path.clone(), line: f.line_of(off) });
        }
    }
}

/// Phase 2 of rule `magic-needs-golden`: every collected constant must be
/// referenced from at least one test context — a `#[cfg(test)]` span or a
/// file under a `tests/` directory — pinning the on-disk format with a
/// golden fixture. Bumping a magic or version constant without touching a
/// golden test is exactly the mistake this rule exists to catch.
pub fn magic_needs_golden(consts: &[MagicConst], files: &[SourceFile], out: &mut Vec<Violation>) {
    for c in consts {
        let mut referenced = false;
        'files: for f in files {
            let path = f.path.display().to_string();
            let whole_file_test = path.contains("/tests/");
            if !whole_file_test && !in_lib_src(&path) {
                continue;
            }
            for off in find_token(&f.masked, c.name.as_bytes(), true, true) {
                if whole_file_test || f.in_test(off) {
                    // The declaration itself never counts.
                    if path == c.path && f.line_of(off) == c.line {
                        continue;
                    }
                    referenced = true;
                    break 'files;
                }
            }
        }
        if !referenced {
            out.push(Violation {
                rule: "magic-needs-golden",
                path: c.path.clone(),
                line: c.line,
                msg: format!(
                    "on-disk constant `{}` has no golden-fixture test reference; add a test \
                     pinning the bytes it stamps",
                    c.name
                ),
            });
        }
    }
}

/// Rule `truncating-cast`: in the wire-path files, no `as u8`/`as u16`/
/// `as u32` in non-test code — a length that silently wraps writes a
/// corrupt frame instead of returning an error. Use `u32::try_from` (or
/// a checked helper) and surface `Error::Corruption`.
pub fn truncating_cast(f: &SourceFile, out: &mut Vec<Violation>) {
    let path = f.path.display().to_string();
    if !in_lib_src(&path) {
        return;
    }
    let name = f.path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
    if !WIRE_FILES.contains(&name) {
        return;
    }
    let m = &f.masked;
    for off in find_token(m, b"as", true, true) {
        if f.in_test(off) {
            continue;
        }
        let mut i = off + 2;
        while i < m.len() && m[i].is_ascii_whitespace() {
            i += 1;
        }
        let start = i;
        while i < m.len() && is_ident(m[i]) {
            i += 1;
        }
        let ty = &m[start..i];
        if matches!(ty, b"u8" | b"u16" | b"u32") {
            push(
                out,
                f,
                "truncating-cast",
                off,
                format!(
                    "`as {}` on a wire path can silently truncate; use `{}::try_from` and \
                     surface a typed error",
                    String::from_utf8_lossy(ty),
                    String::from_utf8_lossy(ty)
                ),
            );
        }
    }
}

/// Run every rule over `files`, returning all findings.
pub fn run_all(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut consts = Vec::new();
    for f in files {
        no_panic(f, &mut out);
        raw_sync(f, &mut out);
        io_result_pub(f, &mut out);
        truncating_cast(f, &mut out);
        collect_magic(f, &mut consts);
    }
    magic_needs_golden(&consts, files, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}
