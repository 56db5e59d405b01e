//! `no-unwrap-hot-path`: no `.unwrap()` or `panic!` in the server
//! request-path modules.
//!
//! A panic on the request path either aborts a worker (taking every
//! queued job with it) or poisons shared state; errors there must flow
//! through `ServiceError` to the one client that caused them.
//! `.expect("…invariant…")` is allowed — it documents why the branch
//! is impossible — but bare `.unwrap()` and `panic!` are not.

use crate::diag::{Diagnostic, Lint};
use crate::engine::Workspace;
use crate::lexer::TokKind::{Ident, Punct};
use crate::lints::seq_at;

/// The modules every request flows through: the codec parses every
/// request and encodes every response.
const HOT_PATH: [&str; 11] = [
    "crates/service/src/conn.rs",
    "crates/service/src/server.rs",
    "crates/service/src/cache.rs",
    "crates/service/src/pool.rs",
    "crates/service/src/wire.rs",
    "crates/service/src/engine.rs",
    "crates/service/src/json.rs",
    "crates/service/src/proto.rs",
    "crates/service/src/spec.rs",
    "crates/router/src/proxy.rs",
    "crates/router/src/backend.rs",
];

/// Run the lint over the request-path modules.
pub fn run(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        if !HOT_PATH.contains(&file.rel.as_str()) {
            continue;
        }
        let toks = &file.lexed.toks;
        for i in 0..toks.len() {
            if toks[i].in_test {
                continue;
            }
            let unwrap_call = [(Punct, "."), (Ident, "unwrap"), (Punct, "("), (Punct, ")")];
            if seq_at(toks, i, &unwrap_call) {
                diags.push(Diagnostic {
                    lint: Lint::NoUnwrapHotPath,
                    file: file.rel.clone(),
                    line: toks[i].line,
                    message: ".unwrap() on the request path can kill a worker; return a \
                              ServiceError (or .expect() a documented invariant)"
                        .to_owned(),
                });
            }
            if seq_at(toks, i, &[(Ident, "panic"), (Punct, "!")]) {
                diags.push(Diagnostic {
                    lint: Lint::NoUnwrapHotPath,
                    file: file.rel.clone(),
                    line: toks[i].line,
                    message: "panic! on the request path aborts shared workers; return a \
                              ServiceError instead"
                        .to_owned(),
                });
            }
        }
    }
}
