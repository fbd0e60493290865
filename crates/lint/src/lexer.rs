//! A small hand-rolled Rust lexer: just enough token awareness to mask
//! comments, string/char literals and locate `#[cfg(test)]`/`#[test]`
//! item spans, so the rule scanners in [`crate::rules`] never match
//! inside prose, fixtures or test code.
//!
//! This is deliberately not a parser. The workspace is offline, so `syn`
//! is off the table; instead the rules operate on a *masked* copy of each
//! source file in which every comment byte and every literal byte has
//! been replaced by a space (newlines are preserved, so offsets and line
//! numbers stay exact). Handled literal forms: line and nested block
//! comments, plain/byte strings with escapes, raw strings with any `#`
//! fence (`r"…"`, `r#"…"#`, `br##"…"##`), and char/byte-char literals
//! disambiguated from lifetimes.

use std::path::PathBuf;

/// One scanned source file: the original text plus the derived masks the
/// rules run on.
pub struct SourceFile {
    /// Repo-relative path (used in diagnostics).
    pub path: PathBuf,
    /// Original text, used only for waiver-comment lookup.
    pub text: String,
    /// Same length as `text`: comments and literal contents blanked to
    /// spaces, newlines kept.
    pub masked: Vec<u8>,
    /// `true` for every byte inside a `#[cfg(test)]` or `#[test]` item.
    pub test_mask: Vec<bool>,
    /// Byte offset of the start of each line (line 1 first).
    line_starts: Vec<usize>,
}

impl SourceFile {
    /// Lex `text` into a masked view.
    pub fn parse(path: impl Into<PathBuf>, text: impl Into<String>) -> SourceFile {
        let text = text.into();
        let masked = mask(text.as_bytes());
        let test_mask = test_spans(&masked);
        let mut line_starts = vec![0usize];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        SourceFile { path: path.into(), text, masked, test_mask, line_starts }
    }

    /// 1-based line number of byte `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= offset)
    }

    /// Is `offset` inside test-only code?
    pub fn in_test(&self, offset: usize) -> bool {
        self.test_mask.get(offset).copied().unwrap_or(false)
    }

    /// Does line `line` carry a `lint: allow(<rule>)` waiver comment —
    /// either at its end, or on a comment-only line directly above it?
    /// (An end-of-line waiver covers only its own line, so a waived site
    /// never silently shields the next statement.)
    pub fn waived(&self, line: usize, rule: &str) -> bool {
        let needle = format!("lint: allow({rule})");
        let line_text = |l: usize| -> &str {
            let start = self.line_starts[l - 1];
            let end = self.line_starts.get(l).copied().unwrap_or(self.text.len());
            &self.text[start..end]
        };
        if line >= 1 && line <= self.line_starts.len() && line_text(line).contains(&needle) {
            return true;
        }
        if line >= 2 {
            let above = line_text(line - 1).trim_start();
            if above.starts_with("//") && above.contains(&needle) {
                return true;
            }
        }
        false
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Blank comments and literal contents to spaces, preserving length and
/// newlines.
fn mask(src: &[u8]) -> Vec<u8> {
    let mut out = src.to_vec();
    let mut i = 0;
    while i < src.len() {
        let b = src[i];
        // Line comment (incl. `///` and `//!`).
        if b == b'/' && src.get(i + 1) == Some(&b'/') {
            while i < src.len() && src[i] != b'\n' {
                out[i] = b' ';
                i += 1;
            }
            continue;
        }
        // Nested block comment.
        if b == b'/' && src.get(i + 1) == Some(&b'*') {
            let mut depth = 0usize;
            while i < src.len() {
                if src[i] == b'/' && src.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    out[i] = b' ';
                    out[i + 1] = b' ';
                    i += 2;
                } else if src[i] == b'*' && src.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    out[i] = b' ';
                    out[i + 1] = b' ';
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if src[i] != b'\n' {
                        out[i] = b' ';
                    }
                    i += 1;
                }
            }
            continue;
        }
        // Raw (and raw byte) strings: r"…", r#"…"#, br##"…"##.
        if (b == b'r' || b == b'b') && (i == 0 || !is_ident(src[i - 1])) {
            let mut j = i;
            if src[j] == b'b' && src.get(j + 1) == Some(&b'r') {
                j += 2;
            } else if src[j] == b'r' {
                j += 1;
            } else {
                j = i; // plain b"…" handled by the string arm below
            }
            if j > i {
                let mut fence = 0usize;
                while src.get(j + fence) == Some(&b'#') {
                    fence += 1;
                }
                if src.get(j + fence) == Some(&b'"') {
                    // Mask from the opening quote to the closing fence.
                    let mut k = j + fence + 1;
                    let closer: Vec<u8> =
                        std::iter::once(b'"').chain(std::iter::repeat_n(b'#', fence)).collect();
                    while k < src.len() && !src[k..].starts_with(&closer) {
                        if src[k] != b'\n' {
                            out[k] = b' ';
                        }
                        k += 1;
                    }
                    for m in (i..j + fence + 1).chain(k..(k + closer.len()).min(src.len())) {
                        out[m] = b' ';
                    }
                    i = (k + closer.len()).min(src.len());
                    continue;
                }
            }
        }
        // Plain and byte strings with escapes.
        if b == b'"'
            || (b == b'b' && src.get(i + 1) == Some(&b'"') && (i == 0 || !is_ident(src[i - 1])))
        {
            let start = i;
            i += if b == b'b' { 2 } else { 1 };
            while i < src.len() {
                if src[i] == b'\\' {
                    i += 2;
                    continue;
                }
                if src[i] == b'"' {
                    i += 1;
                    break;
                }
                i += 1;
            }
            for m in start..i.min(src.len()) {
                if src[m] != b'\n' {
                    out[m] = b' ';
                }
            }
            continue;
        }
        // Char / byte-char literal vs lifetime.
        if b == b'\''
            || (b == b'b' && src.get(i + 1) == Some(&b'\'') && (i == 0 || !is_ident(src[i - 1])))
        {
            let q = if b == b'b' { i + 1 } else { i };
            let is_char = match src.get(q + 1) {
                Some(b'\\') => true,
                Some(_) => src.get(q + 2) == Some(&b'\''),
                None => false,
            };
            if is_char {
                let start = i;
                let mut k = q + 1;
                if src.get(k) == Some(&b'\\') {
                    k += 2; // skip the escape head; scan to the closing quote
                }
                while k < src.len() && src[k] != b'\'' {
                    k += 1;
                }
                k = (k + 1).min(src.len());
                for m in start..k {
                    if src[m] != b'\n' {
                        out[m] = b' ';
                    }
                }
                i = k;
                continue;
            }
            // Lifetime: leave as-is.
        }
        i += 1;
    }
    out
}

/// Mark the byte span of every item annotated `#[cfg(test)]` or
/// `#[test]` (attribute through the end of the item body).
fn test_spans(masked: &[u8]) -> Vec<bool> {
    let mut mask = vec![false; masked.len()];
    let mut i = 0;
    while i < masked.len() {
        if masked[i] != b'#' || masked.get(i + 1) == Some(&b'!') {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < masked.len() && masked[j].is_ascii_whitespace() {
            j += 1;
        }
        if masked.get(j) != Some(&b'[') {
            i += 1;
            continue;
        }
        // Attribute content up to the matching `]`.
        let mut depth = 0usize;
        let mut k = j;
        while k < masked.len() {
            match masked[k] {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        if k >= masked.len() {
            break;
        }
        let attr: Vec<u8> =
            masked[j + 1..k].iter().copied().filter(|b| !b.is_ascii_whitespace()).collect();
        if attr == b"cfg(test)" || attr == b"test" {
            if let Some(end) = item_end(masked, k + 1) {
                for slot in mask[i..end].iter_mut() {
                    *slot = true;
                }
                i = end;
                continue;
            }
        }
        i = k + 1;
    }
    mask
}

/// Find the end (exclusive) of the item starting after an attribute at
/// `from`: skip further attributes, then scan to the `;` that ends a
/// body-less item or the `}` matching the body's opening `{`.
fn item_end(masked: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    loop {
        while i < masked.len() && masked[i].is_ascii_whitespace() {
            i += 1;
        }
        // Chained attributes on the same item.
        if masked.get(i) == Some(&b'#') && masked.get(i + 1) == Some(&b'[') {
            let mut depth = 0usize;
            while i < masked.len() {
                match masked[i] {
                    b'[' => depth += 1,
                    b']' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            continue;
        }
        break;
    }
    let mut depth = 0usize;
    while i < masked.len() {
        match masked[i] {
            b'{' => depth += 1,
            b'}' => {
                // A stray closer (unbalanced text) aborts the span rather
                // than underflowing.
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            b';' if depth == 0 => return Some(i + 1),
            _ => {}
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let f = SourceFile::parse(
            "x.rs",
            "let a = \"lock()\"; // lock()\nlet b = 1; /* .unwrap() */\n",
        );
        let m = String::from_utf8(f.masked.clone()).unwrap();
        assert!(!m.contains("lock()"), "masked: {m}");
        assert!(!m.contains(".unwrap()"));
        assert!(m.contains("let a ="));
        assert_eq!(m.len(), f.text.len());
    }

    #[test]
    fn masks_raw_strings_with_fences() {
        let src = "let s = r#\"panic!(\"no\")\"#; let t = br##\"x \"# y\"##;\nlet u = 3;\n";
        let f = SourceFile::parse("x.rs", src);
        let m = String::from_utf8(f.masked.clone()).unwrap();
        assert!(!m.contains("panic!"));
        assert!(m.contains("let u = 3;"));
    }

    #[test]
    fn char_literals_masked_lifetimes_kept() {
        let src = "fn f<'a>(x: &'a str) { let c = '\"'; let d = '\\''; }";
        let f = SourceFile::parse("x.rs", src);
        let m = String::from_utf8(f.masked.clone()).unwrap();
        assert!(m.contains("<'a>"), "lifetime survives: {m}");
        assert!(m.contains("&'a str"));
        assert!(!m.contains('"'), "quote char literal masked: {m}");
    }

    #[test]
    fn cfg_test_module_span_detected() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let f = SourceFile::parse("x.rs", src);
        let unwrap_at = src.find(".unwrap").unwrap();
        assert!(f.in_test(unwrap_at));
        assert!(!f.in_test(src.find("fn live").unwrap()));
        assert!(!f.in_test(src.find("fn after").unwrap()));
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.in_test(src.find(".unwrap").unwrap()));
    }

    #[test]
    fn waiver_on_same_or_previous_line() {
        let src = "// lint: allow(no-panic): fine\nfoo.unwrap();\nbar.unwrap(); // lint: allow(no-panic): ok\nbaz.unwrap();\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.waived(2, "no-panic"));
        assert!(f.waived(3, "no-panic"));
        assert!(!f.waived(4, "no-panic"));
        assert!(!f.waived(2, "raw-sync"));
    }

    #[test]
    fn line_numbers_are_exact() {
        let f = SourceFile::parse("x.rs", "a\nb\nc\n");
        assert_eq!(f.line_of(0), 1);
        assert_eq!(f.line_of(2), 2);
        assert_eq!(f.line_of(4), 3);
    }
}
