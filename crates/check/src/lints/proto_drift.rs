//! `proto-doc-drift`: the request table, the job-options table, the
//! `hello` capability list, and `docs/PROTOCOL.md` must agree.
//!
//! Four artifacts describe the protocol surface: the request rows of
//! `wire_messages! { requests Request, … }` in
//! `crates/service/src/proto.rs` (the one place a verb, the capability
//! that advertises it, and its wire fields are declared), the rows of
//! `wire_object! { "options" JobOptions … }` in the same file (the
//! per-job options), the string list returned by `capabilities()`
//! (what `hello` advertises), and `docs/PROTOCOL.md` (what operators
//! read). This lint parses the first three out of the token stream and
//! cross-checks them against the doc:
//!
//! 1. a row's capability (`[Some("…")]` beside the verb; `[None]`
//!    marks a baseline verb every server speaks) must actually be in
//!    the `capabilities()` list — the table's grammar already makes
//!    declaring one mandatory, and the compiler already insists every
//!    `Request` variant has a row;
//! 2. the row's verb must appear (backticked) in `docs/PROTOCOL.md`;
//! 3. every capability string must itself be documented in
//!    `docs/PROTOCOL.md`;
//! 4. every option's wire name must head a row of the doc's options
//!    table (the first table after "The `options` object"), and every
//!    row there must name an option.

use crate::diag::{Diagnostic, Lint};
use crate::engine::Workspace;
use crate::lexer::Tok;
use crate::lexer::TokKind::{Ident, Punct, Str};
use crate::lints::seq_at;

const PROTO: &str = "crates/service/src/proto.rs";
const DOC: &str = "docs/PROTOCOL.md";

/// One row of the request table.
struct Row {
    verb: String,
    capability: Option<String>,
    variant: String,
    line: u32,
}

/// Run the drift check; silently skipped when `proto.rs` is not part
/// of the analyzed tree (fixture roots without a service crate).
pub fn run(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    let Some(file) = ws.file(PROTO) else { return };
    let toks = &file.lexed.toks;
    let rows = request_rows(toks);
    let caps = capability_strings(toks);
    let doc = ws.docs.get(DOC).map(String::as_str);

    if rows.is_empty() {
        diags.push(Diagnostic {
            lint: Lint::ProtoDocDrift,
            file: PROTO.to_owned(),
            line: 1,
            message: "could not find any rows of the `wire_messages! { requests Request, … }` \
                      table to check"
                .to_owned(),
        });
        return;
    }

    for row in &rows {
        let Row {
            verb,
            capability,
            variant,
            line,
        } = row;
        if let Some(cap) = capability {
            if !caps.iter().any(|(c, _)| c == cap) {
                diags.push(Diagnostic {
                    lint: Lint::ProtoDocDrift,
                    file: PROTO.to_owned(),
                    line: *line,
                    message: format!(
                        "Request::{variant} is advertised by capability {cap:?}, but \
                         capabilities() does not return {cap:?}"
                    ),
                });
            }
        }
        if let Some(doc) = doc {
            if !doc.contains(&format!("`{verb}`")) {
                diags.push(Diagnostic {
                    lint: Lint::ProtoDocDrift,
                    file: PROTO.to_owned(),
                    line: *line,
                    message: format!(
                        "Request::{variant} has no backticked `{verb}` entry in {DOC}"
                    ),
                });
            }
        }
    }

    if doc.is_none() {
        diags.push(Diagnostic {
            lint: Lint::ProtoDocDrift,
            file: PROTO.to_owned(),
            line: 1,
            message: format!("{DOC} is missing, so the protocol surface is undocumented"),
        });
        return;
    }
    let doc = doc.unwrap_or_default();
    check_options(&option_rows(toks), doc, diags);
    for (cap, line) in &caps {
        if !doc.contains(&format!("`{cap}`")) {
            diags.push(Diagnostic {
                lint: Lint::ProtoDocDrift,
                file: PROTO.to_owned(),
                line: *line,
                message: format!(
                    "capability {cap:?} is advertised by hello but never documented in {DOC}"
                ),
            });
        }
    }
}

/// Every `"verb" [capability] Variant …` row of the
/// `wire_messages! { requests Request, "request"; … }` table.
fn request_rows(toks: &[Tok]) -> Vec<Row> {
    let mut out = Vec::new();
    let start = (0..toks.len()).find(|&i| {
        seq_at(
            toks,
            i,
            &[
                (Ident, "wire_messages"),
                (Punct, "!"),
                (Punct, "{"),
                (Ident, "requests"),
                (Ident, "Request"),
            ],
        )
    });
    let Some(start) = start else { return out };
    // Rows begin after the header's `;`. A row's verb is the string
    // literal at the table's own nesting level; its capability is the
    // string (if any) in the `[…]` that follows, its variant the
    // identifier after that. Everything deeper is the row's fields.
    let mut depth = 0usize;
    let mut in_rows = false;
    let mut row: Option<Row> = None;
    for t in &toks[start + 2..] {
        match (t.kind, t.text.as_str()) {
            (Punct, "{" | "[" | "(") => depth += 1,
            (Punct, "}" | "]" | ")") => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            (Punct, ";") if depth == 1 => in_rows = true,
            (Str, verb) if in_rows && depth == 1 => {
                row = Some(Row {
                    verb: verb.to_owned(),
                    capability: None,
                    variant: String::new(),
                    line: t.line,
                });
            }
            (Str, cap) if depth > 1 => {
                if let Some(row) = row.as_mut().filter(|r| r.variant.is_empty()) {
                    row.capability = Some(cap.to_owned());
                }
            }
            (Ident, variant) if depth == 1 => {
                if let Some(mut row) = row.take() {
                    row.variant = variant.to_owned();
                    out.push(row);
                }
            }
            _ => {}
        }
    }
    out
}

/// Every string literal inside `pub fn capabilities(…) { … }`.
fn capability_strings(toks: &[Tok]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let Some(start) =
        (0..toks.len()).find(|&i| seq_at(toks, i, &[(Ident, "fn"), (Ident, "capabilities")]))
    else {
        return out;
    };
    let mut brace = 0usize;
    let mut seen_open = false;
    for t in &toks[start..] {
        match (t.kind, t.text.as_str()) {
            (Punct, "{") => {
                brace += 1;
                seen_open = true;
            }
            (Punct, "}") => {
                brace -= 1;
                if seen_open && brace == 0 {
                    break;
                }
            }
            (Str, s) if seen_open => out.push((s.to_owned(), t.line)),
            _ => {}
        }
    }
    out
}

/// Rule 4: the option rows and the doc's options table name the same
/// options.
fn check_options(rows: &[(String, u32)], doc: &str, diags: &mut Vec<Diagnostic>) {
    let mut drift = |line: u32, message: String| {
        diags.push(Diagnostic {
            lint: Lint::ProtoDocDrift,
            file: PROTO.to_owned(),
            line,
            message,
        });
    };
    if rows.is_empty() {
        drift(
            1,
            "could not find any rows of the `wire_object! { \"options\" JobOptions … }` table \
             to check"
                .to_owned(),
        );
    }
    let Some(documented) = documented_options(doc) else {
        drift(
            1,
            format!("{DOC} has no options table after \"The `options` object\""),
        );
        return;
    };
    for (name, line) in rows {
        if !documented.contains(name) {
            drift(
                *line,
                format!("job option `{name}` has no row in {DOC}'s options table"),
            );
        }
    }
    for name in documented {
        if !rows.iter().any(|(row, _)| *row == name) {
            drift(
                1,
                format!(
                    "{DOC}'s options table documents `{name}`, which JobOptions has no row for"
                ),
            );
        }
    }
}

/// The wire name of every row of `wire_object! { "options" JobOptions
/// => { mode field [as "name"], … } }`, with its line.
fn option_rows(toks: &[Tok]) -> Vec<(String, u32)> {
    let header = [
        (Ident, "wire_object"),
        (Punct, "!"),
        (Punct, "{"),
        (Str, "options"),
        (Ident, "JobOptions"),
    ];
    let mut out = Vec::new();
    let Some(start) = (0..toks.len()).find(|&i| seq_at(toks, i, &header)) else {
        return out;
    };
    // The rows are the comma-separated runs inside the first `{ … }`
    // after the type name.
    let mut depth = 0usize;
    let mut row: Vec<&Tok> = Vec::new();
    for t in &toks[start + header.len()..] {
        match (t.kind, t.text.as_str()) {
            (Punct, "{") => depth += 1,
            (Punct, "," | "}") if depth == 1 => {
                let name = row.iter().find(|t| t.kind == Str).or(row.get(1));
                if let Some(name) = name {
                    out.push((name.text.clone(), name.line));
                }
                row.clear();
                if t.text == "}" {
                    break;
                }
            }
            _ if depth == 1 => row.push(t),
            _ => {}
        }
    }
    out
}

/// The first-column names of the doc's options table, backticks
/// stripped; `None` when there is no such table.
fn documented_options(doc: &str) -> Option<Vec<String>> {
    let after = &doc[doc.find("The `options` object")?..];
    let table: Vec<&str> = after
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .collect();
    if table.len() < 2 {
        return None;
    }
    // Skip the header and the `|---|` separator.
    let names = table[2..]
        .iter()
        .filter_map(|row| row.split('|').nth(1))
        .map(|cell| cell.trim().trim_matches('`').to_owned())
        .collect();
    Some(names)
}
