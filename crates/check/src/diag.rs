//! Diagnostics and the lint registry.

use std::fmt;

/// Every lint `drmap-check` knows, deny-by-default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// `.lock().unwrap()` / `.lock().expect(…)` in non-test
    /// service/store/telemetry code: must use the poison-recovering
    /// `unwrap_or_else(|e| e.into_inner())` idiom instead.
    LockPoison,
    /// `.unwrap()` / `panic!` in the server request-path modules.
    NoUnwrapHotPath,
    /// A raw `Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}` use
    /// outside `crates/telemetry` without an `// ordering:`
    /// justification comment.
    OrderingAudit,
    /// A crate root missing `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// `Request` variants, the `hello` capability list, and
    /// `docs/PROTOCOL.md` out of sync.
    ProtoDocDrift,
    /// Registered metric names and `docs/OBSERVABILITY.md` out of sync.
    MetricsDocDrift,
    /// A retry loop in service/store code with no visible bound — it
    /// must reference an attempt budget or a deadline.
    BoundedRetry,
}

impl Lint {
    /// Every lint, in reporting order.
    pub const ALL: [Lint; 7] = [
        Lint::LockPoison,
        Lint::NoUnwrapHotPath,
        Lint::OrderingAudit,
        Lint::ForbidUnsafe,
        Lint::ProtoDocDrift,
        Lint::MetricsDocDrift,
        Lint::BoundedRetry,
    ];

    /// The kebab-case name used in diagnostics and `check:allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Lint::LockPoison => "lock-poison",
            Lint::NoUnwrapHotPath => "no-unwrap-hot-path",
            Lint::OrderingAudit => "ordering-audit",
            Lint::ForbidUnsafe => "forbid-unsafe",
            Lint::ProtoDocDrift => "proto-doc-drift",
            Lint::MetricsDocDrift => "metrics-doc-drift",
            Lint::BoundedRetry => "bounded-retry",
        }
    }

    /// One-line description for `--list-lints`.
    pub fn summary(self) -> &'static str {
        match self {
            Lint::LockPoison => {
                "mutex locks must recover from poisoning via unwrap_or_else(|e| e.into_inner())"
            }
            Lint::NoUnwrapHotPath => {
                "no .unwrap()/panic! in request-path modules (conn, server, cache, pool, wire, engine, the codec, the router)"
            }
            Lint::OrderingAudit => {
                "raw atomic Ordering uses outside crates/telemetry need an `// ordering:` justification"
            }
            Lint::ForbidUnsafe => "every crate root must carry #![forbid(unsafe_code)]",
            Lint::ProtoDocDrift => {
                "proto.rs Request variants, the hello capability list, and docs/PROTOCOL.md must agree"
            }
            Lint::MetricsDocDrift => {
                "registered metric names and docs/OBSERVABILITY.md must agree, both directions"
            }
            Lint::BoundedRetry => {
                "retry loops in service/store code must reference an attempt budget or deadline"
            }
        }
    }

    /// Parse a lint name as written in `check:allow(...)` or `--lint`.
    pub fn from_name(name: &str) -> Option<Lint> {
        Lint::ALL.iter().copied().find(|l| l.name() == name)
    }
}

/// One finding, pointing at a file and line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: Lint,
    /// Workspace-relative path, unix separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.lint.name(),
            self.message
        )
    }
}
