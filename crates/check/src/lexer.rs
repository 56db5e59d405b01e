//! A minimal, std-only Rust lexer for lint pattern matching.
//!
//! This is **not** a compiler front-end: it produces a flat token
//! stream good enough to match patterns like `.lock().unwrap()` or
//! `Ordering::SeqCst` without ever being fooled by the same characters
//! appearing inside string literals, raw strings, char literals, or
//! (nested) comments. It also tracks two pieces of context the lints
//! need:
//!
//! * **comments per line** — so `// check:allow(...)` escapes and
//!   `// ordering:` justifications can be resolved, and
//! * **`#[cfg(test)]` / `#[test]` regions** — tokens inside a
//!   test-gated item are marked `in_test` and exempt from the
//!   production-code lints.

use std::collections::{HashMap, HashSet};

/// What kind of lexeme a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`unwrap`, `fn`, `Ordering`, …).
    Ident,
    /// A single punctuation character (`.`; `::` is two `:` tokens).
    Punct,
    /// A string or byte-string literal; `text` holds the raw inner
    /// bytes without quotes or raw-string hashes (escapes undecoded).
    Str,
    /// A character literal.
    Char,
    /// A numeric literal (integer or float, suffix included).
    Num,
    /// A lifetime or loop label (`'a`, `'outer`).
    Lifetime,
}

/// One token, with the 1-based source line it starts on.
#[derive(Debug, Clone)]
pub struct Tok {
    /// The lexeme kind.
    pub kind: TokKind,
    /// Identifier text, the punct character, or literal contents.
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: u32,
    /// True when the token sits inside a `#[cfg(test)]`/`#[test]`
    /// item body (including the attribute itself).
    pub in_test: bool,
}

/// A fully lexed source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Every non-comment token in source order.
    pub toks: Vec<Tok>,
    /// Comment text by 1-based line. A block comment spanning several
    /// lines contributes one entry per line it covers.
    pub comments: HashMap<u32, Vec<String>>,
    /// Lines that contain at least one non-comment token.
    pub code_lines: HashSet<u32>,
}

impl Lexed {
    /// Does `line` carry a comment whose text satisfies `pred`?
    fn comment_on<F: Fn(&str) -> bool>(&self, line: u32, pred: &F) -> bool {
        self.comments
            .get(&line)
            .is_some_and(|cs| cs.iter().any(|c| pred(c)))
    }

    /// True when a comment matching `pred` is attached to `line`:
    /// either trailing on the same line, or in the contiguous run of
    /// comment-only lines immediately above it. A trailing comment on a
    /// *code* line above does **not** attach — it belongs to that line.
    pub fn attached_comment<F: Fn(&str) -> bool>(&self, line: u32, pred: F) -> bool {
        if self.comment_on(line, &pred) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 && self.comments.contains_key(&l) && !self.code_lines.contains(&l) {
            if self.comment_on(l, &pred) {
                return true;
            }
            l -= 1;
        }
        false
    }

    /// The lints suppressed at `line` via `// check:allow(a, b)`.
    pub fn allows(&self, line: u32) -> Vec<String> {
        let mut names = Vec::new();
        let mut collect = |text: &str| {
            let mut rest = text;
            while let Some(at) = rest.find("check:allow(") {
                let inner = &rest[at + "check:allow(".len()..];
                if let Some(end) = inner.find(')') {
                    for name in inner[..end].split(',') {
                        names.push(name.trim().to_owned());
                    }
                    rest = &inner[end..];
                } else {
                    break;
                }
            }
        };
        if let Some(cs) = self.comments.get(&line) {
            cs.iter().for_each(|c| collect(c));
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 && self.comments.contains_key(&l) && !self.code_lines.contains(&l) {
            if let Some(cs) = self.comments.get(&l) {
                cs.iter().for_each(|c| collect(c));
            }
            l -= 1;
        }
        names
    }
}

/// Lex `src` into tokens, comments, and test-region marks.
pub fn lex(src: &str) -> Lexed {
    let mut lx = Lexed::default();
    let b = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let end = src[i..].find('\n').map_or(b.len(), |n| i + n);
                let text = &src[i + 2..end];
                lx.comments
                    .entry(line)
                    .or_default()
                    .push(text.trim_start_matches(['/', '!']).trim().to_owned());
                i = end;
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                // Nested block comment; record its text on every line
                // it spans so attachment rules see the whole block.
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let text = &src[start..i];
                let inner = text
                    .trim_start_matches("/*")
                    .trim_end_matches("*/")
                    .trim_matches(['*', '!', ' '])
                    .to_owned();
                let spanned = text.bytes().filter(|&c| c == b'\n').count() as u32;
                for l in line..=line + spanned {
                    lx.comments.entry(l).or_default().push(inner.clone());
                }
                line += spanned;
            }
            b'"' => {
                let (inner, consumed, newlines) = scan_string(&src[i..]);
                lx.push_tok(TokKind::Str, inner, line);
                line += newlines;
                i += consumed;
            }
            b'r' | b'b' if starts_raw_or_byte_string(&src[i..]) => {
                let (kind, inner, consumed, newlines) = scan_prefixed_string(&src[i..]);
                lx.push_tok(kind, inner, line);
                line += newlines;
                i += consumed;
            }
            b'\'' => {
                let (kind, text, consumed) = scan_quote(&src[i..]);
                lx.push_tok(kind, text, line);
                i += consumed;
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let mut j = i + 1;
                while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                    j += 1;
                }
                lx.push_tok(TokKind::Ident, src[i..j].to_owned(), line);
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                while j < b.len()
                    && (b[j] == b'_'
                        || b[j].is_ascii_alphanumeric()
                        || (b[j] == b'.' && b.get(j + 1).is_some_and(u8::is_ascii_digit)))
                {
                    j += 1;
                }
                lx.push_tok(TokKind::Num, src[i..j].to_owned(), line);
                i = j;
            }
            _ => {
                lx.push_tok(TokKind::Punct, (c as char).to_string(), line);
                i += 1;
            }
        }
    }
    mark_test_regions(&mut lx.toks);
    lx
}

impl Lexed {
    fn push_tok(&mut self, kind: TokKind, text: String, line: u32) {
        self.code_lines.insert(line);
        self.toks.push(Tok {
            kind,
            text,
            line,
            in_test: false,
        });
    }
}

/// Is `rest` (starting with `r` or `b`) a raw/byte string or raw
/// identifier? Returns true only for the string forms.
fn starts_raw_or_byte_string(rest: &str) -> bool {
    let b = rest.as_bytes();
    match b[0] {
        b'b' => matches!(b.get(1), Some(b'"')) || (b.get(1) == Some(&b'r') && raw_tail(&b[2..])),
        b'r' => raw_tail(&b[1..]),
        _ => false,
    }
}

/// After the `r`, raw strings look like `#*"`.
fn raw_tail(b: &[u8]) -> bool {
    let hashes = b.iter().take_while(|&&c| c == b'#').count();
    b.get(hashes) == Some(&b'"')
}

/// Scan a plain `"..."` string starting at the opening quote. Returns
/// (inner text, bytes consumed, newlines spanned).
fn scan_string(rest: &str) -> (String, usize, u32) {
    let b = rest.as_bytes();
    let mut i = 1usize;
    let mut newlines = 0u32;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\n' => {
                newlines += 1;
                i += 1;
            }
            b'"' => {
                return (rest[1..i].to_owned(), i + 1, newlines);
            }
            _ => i += 1,
        }
    }
    (rest[1..].to_owned(), b.len(), newlines)
}

/// Scan `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` starting at the prefix.
fn scan_prefixed_string(rest: &str) -> (TokKind, String, usize, u32) {
    let b = rest.as_bytes();
    let mut i = 0usize;
    let mut raw = false;
    if b[i] == b'b' {
        i += 1;
    }
    if b.get(i) == Some(&b'r') {
        raw = true;
        i += 1;
    }
    let hashes = b[i..].iter().take_while(|&&c| c == b'#').count();
    i += hashes;
    debug_assert_eq!(b.get(i), Some(&b'"'));
    if !raw {
        let (inner, consumed, newlines) = scan_string(&rest[i..]);
        return (TokKind::Str, inner, i + consumed, newlines);
    }
    let open = i + 1;
    let closer = format!("\"{}", "#".repeat(hashes));
    let end = rest[open..]
        .find(&closer)
        .map_or(rest.len(), |n| open + n + closer.len());
    let inner_end = end.saturating_sub(closer.len()).max(open);
    let newlines = rest[..end].bytes().filter(|&c| c == b'\n').count() as u32;
    (
        TokKind::Str,
        rest[open..inner_end].to_owned(),
        end,
        newlines,
    )
}

/// Scan a `'…'` char literal or a `'ident` lifetime/label.
fn scan_quote(rest: &str) -> (TokKind, String, usize) {
    let b = rest.as_bytes();
    if b.get(1) == Some(&b'\\') {
        // Escaped char literal: find the closing quote.
        let mut i = 3;
        while i < b.len() && b[i] != b'\'' {
            i += 1;
        }
        return (TokKind::Char, rest[1..i.min(rest.len())].to_owned(), i + 1);
    }
    let is_ident_start =
        |c: u8| c == b'_' || c.is_ascii_alphabetic() || !c.is_ascii() /* unicode idents */;
    if b.get(1).copied().is_some_and(is_ident_start) && b.get(2) != Some(&b'\'') {
        // Lifetime or label: 'a, 'static, 'outer.
        let mut j = 2;
        while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
            j += 1;
        }
        return (TokKind::Lifetime, rest[1..j].to_owned(), j);
    }
    // Unescaped char literal like 'x' (or the odd '''/empty form).
    let close = rest[1..].find('\'').map_or(rest.len(), |n| 1 + n);
    (
        TokKind::Char,
        rest[1..close.min(rest.len())].to_owned(),
        close + 1,
    )
}

/// Mark tokens inside `#[cfg(test)]` / `#[test]` items as test code.
///
/// Recognizes an attribute whose inner identifiers are exactly `test`,
/// or start with `cfg` and contain `test` but not `not` (so
/// `#[cfg(not(test))]` still counts as production code). The marked
/// region runs from the attribute through the end of the following
/// item: its matching `}` if a brace opens before a top-level `;`,
/// otherwise the `;`, or the enclosing `}` if that comes first.
fn mark_test_regions(toks: &mut [Tok]) {
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Punct && toks[i].text == "#") {
            i += 1;
            continue;
        }
        // `#[` or `#![` — inner attributes never gate a test item.
        let Some(open) = toks.get(i + 1) else { break };
        if !(open.kind == TokKind::Punct && open.text == "[") {
            i += 1;
            continue;
        }
        // Collect inner idents up to the matching `]`.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut inner: Vec<String> = Vec::new();
        while j < toks.len() {
            match (&toks[j].kind, toks[j].text.as_str()) {
                (TokKind::Punct, "[") => depth += 1,
                (TokKind::Punct, "]") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                (TokKind::Ident, name) => inner.push(name.to_owned()),
                _ => {}
            }
            j += 1;
        }
        let is_test_attr = inner == ["test"]
            || (inner.first().is_some_and(|f| f == "cfg")
                && inner.iter().any(|n| n == "test")
                && !inner.iter().any(|n| n == "not"));
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then span the item.
        let is_punct = |t: &Tok, c: &str| t.kind == TokKind::Punct && t.text == c;
        let mut k = j + 1;
        while k + 1 < toks.len() && is_punct(&toks[k], "#") && is_punct(&toks[k + 1], "[") {
            let mut d = 0usize;
            k += 1;
            while k < toks.len() {
                if is_punct(&toks[k], "[") {
                    d += 1;
                } else if is_punct(&toks[k], "]") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                k += 1;
            }
            k += 1;
        }
        let mut braces = 0usize;
        let mut end = k;
        while end < toks.len() {
            if is_punct(&toks[end], "{") {
                braces += 1;
            } else if is_punct(&toks[end], "}") {
                if braces == 0 {
                    // A gated struct field or struct-literal member: the
                    // region runs to the enclosing `}` (so it may take the
                    // members after it along).
                    break;
                }
                braces -= 1;
                if braces == 0 {
                    break;
                }
            } else if is_punct(&toks[end], ";") && braces == 0 {
                break;
            }
            end += 1;
        }
        let last = end.min(toks.len() - 1);
        for t in toks[i..=last].iter_mut() {
            t.in_test = true;
        }
        i = end + 1;
    }
}
