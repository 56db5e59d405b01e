//! `lock-poison`: `.lock().unwrap()` and `.lock().expect(…)` are
//! banned in non-test service/store/telemetry/router code.
//!
//! A panic on one thread must not cascade into every thread that
//! later touches the same mutex: every structure those crates guard is
//! left structurally valid on unwind, so lock sites must recover with
//! `lock().unwrap_or_else(|e| e.into_inner())` (the one helper,
//! `drmap_telemetry::lock_recovered`) instead of propagating the poison.

use crate::diag::{Diagnostic, Lint};
use crate::engine::Workspace;
use crate::lexer::TokKind::{Ident, Punct};
use crate::lints::seq_at;

const SCOPES: [&str; 4] = [
    "crates/service/src/",
    "crates/store/src/",
    "crates/telemetry/src/",
    "crates/router/src/",
];

/// Run the lint over every in-scope file.
pub fn run(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        if !SCOPES.iter().any(|s| file.rel.starts_with(s)) {
            continue;
        }
        let toks = &file.lexed.toks;
        for i in 0..toks.len() {
            if toks[i].in_test {
                continue;
            }
            let prefix = [
                (Punct, "."),
                (Ident, "lock"),
                (Punct, "("),
                (Punct, ")"),
                (Punct, "."),
            ];
            if !seq_at(toks, i, &prefix) {
                continue;
            }
            let sink = &toks[i + 5];
            if sink.kind == Ident && (sink.text == "unwrap" || sink.text == "expect") {
                diags.push(Diagnostic {
                    lint: Lint::LockPoison,
                    file: file.rel.clone(),
                    line: toks[i].line,
                    message: format!(
                        ".lock().{}() propagates mutex poisoning; recover with \
                         .lock().unwrap_or_else(|e| e.into_inner()) (see drmap_telemetry::lock_recovered)",
                        sink.text
                    ),
                });
            }
        }
    }
}
