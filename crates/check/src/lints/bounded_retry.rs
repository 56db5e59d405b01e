//! `bounded-retry`: retry loops in service/store code must carry a
//! visible bound.
//!
//! An unbounded retry loop turns one transient fault into an infinite
//! busy loop — exactly the failure mode the fault-injection plan
//! exists to provoke. Any loop in `crates/service/src/` or
//! `crates/store/src/` whose tokens mention a retry (an identifier
//! containing `retry`/`retrie`) must, somewhere in the same loop
//! (header or body), reference the thing that bounds it: an
//! identifier containing `attempt`, `budget`, or `deadline`. The
//! bound lives in the code, not a comment, so it cannot rot silently;
//! a justified exception uses `// check:allow(bounded-retry)`.

use crate::diag::{Diagnostic, Lint};
use crate::engine::Workspace;
use crate::lexer::TokKind::{Ident, Punct};

/// The trees where a retry loop touches live traffic or durable data.
const SCOPES: [&str; 3] = [
    "crates/service/src/",
    "crates/store/src/",
    "crates/router/src/",
];

/// Run the lint over every loop in the scoped trees.
pub fn run(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        if !SCOPES.iter().any(|scope| file.rel.starts_with(scope)) {
            continue;
        }
        let toks = &file.lexed.toks;
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.in_test || t.kind != Ident || !matches!(t.text.as_str(), "loop" | "while" | "for")
            {
                continue;
            }
            let Some(end) = loop_end(toks, i) else {
                continue;
            };
            let mut retries = false;
            let mut bounded = false;
            for t in &toks[i + 1..end] {
                if t.kind != Ident {
                    continue;
                }
                let name = t.text.to_ascii_lowercase();
                if name.contains("retry") || name.contains("retrie") {
                    retries = true;
                }
                if name.contains("attempt") || name.contains("budget") || name.contains("deadline")
                {
                    bounded = true;
                }
            }
            if retries && !bounded {
                diags.push(Diagnostic {
                    lint: Lint::BoundedRetry,
                    file: file.rel.clone(),
                    line: t.line,
                    message: "this retry loop has no visible bound; reference an attempt \
                              budget or a deadline inside the loop (identifiers containing \
                              `attempt`, `budget`, or `deadline`)"
                        .to_owned(),
                });
            }
        }
    }
}

/// The token index one past the closing brace of the loop starting at
/// `start` (the `loop`/`while`/`for` keyword). Header braces inside
/// parens or brackets (closure bodies, struct literals in the
/// condition) are skipped; `None` when no body brace is found — or
/// when a `for` turns out to be `impl Trait for Type` / `for<'a>`
/// rather than a loop (no bare `in` before the body brace).
fn loop_end(toks: &[crate::lexer::Tok], start: usize) -> Option<usize> {
    let mut depth = 0isize;
    let mut body = None;
    let mut saw_in = false;
    for (k, t) in toks.iter().enumerate().skip(start + 1) {
        if t.kind == Ident && t.text == "in" && depth == 0 {
            saw_in = true;
        }
        if t.kind != Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => {
                body = Some(k);
                break;
            }
            _ => {}
        }
    }
    if toks[start].text == "for" && !saw_in {
        return None;
    }
    let body = body?;
    let mut braces = 0usize;
    for (k, t) in toks.iter().enumerate().skip(body) {
        if t.kind != Punct {
            continue;
        }
        match t.text.as_str() {
            "{" => braces += 1,
            "}" => {
                braces -= 1;
                if braces == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}
