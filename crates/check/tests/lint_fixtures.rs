//! Golden-fixture tests for the lint engine.
//!
//! Every `.rs` file under `tests/fixtures/` is one self-describing
//! case: its first lines declare the virtual workspace path it should
//! be lexed as and the exact set of lints it must fire:
//!
//! ```text
//! // fixture-path: crates/store/src/store.rs
//! // fixture-expect: lock-poison        (or `none`)
//! ```
//!
//! The harness lints each fixture as a one-file workspace and asserts
//! the fired-lint set equals the declared set — so a lexer or matcher
//! regression shows up as a named fixture, not a CI mystery.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use drmap_check::{engine, Lint, Workspace};

/// Single-file fixtures still need an observability doc present;
/// otherwise `metrics-doc-drift` reports the doc itself as missing for
/// any in-scope path. The taxonomy is intentionally empty — fixtures
/// register no metrics.
const EMPTY_TAXONOMY: &str = "## Metric taxonomy\n";

fn directive<'a>(text: &'a str, key: &str, file: &Path) -> &'a str {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .unwrap_or_else(|| panic!("{} is missing a `{key}` directive", file.display()))
        .trim()
}

#[test]
fn golden_fixtures_fire_exactly_their_declared_lints() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut paths: Vec<_> = fs::read_dir(&dir)
        .expect("tests/fixtures must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 10,
        "expected at least 10 golden fixtures, found {}",
        paths.len()
    );

    for path in paths {
        let text = fs::read_to_string(&path).expect("readable fixture");
        let vpath = directive(&text, "// fixture-path:", &path);
        let expect = directive(&text, "// fixture-expect:", &path);
        let expected: BTreeSet<String> = if expect == "none" {
            BTreeSet::new()
        } else {
            expect.split(',').map(|s| s.trim().to_owned()).collect()
        };
        for name in &expected {
            assert!(
                Lint::from_name(name).is_some(),
                "{}: `{name}` is not a known lint",
                path.display()
            );
        }

        let ws = Workspace::from_sources(&[
            (vpath, text.as_str()),
            ("docs/OBSERVABILITY.md", EMPTY_TAXONOMY),
        ]);
        let diags = engine::run_all(&ws);
        let fired: BTreeSet<String> = diags.iter().map(|d| d.lint.name().to_owned()).collect();
        assert_eq!(
            fired,
            expected,
            "{} (as {vpath}) fired the wrong lint set; diagnostics were:\n{}",
            path.display(),
            diags
                .iter()
                .map(|d| format!("  {d}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// The seeded violation tree (`fixtures/seeded/`) is a miniature repo
/// with every class of violation planted; every lint in `Lint::ALL`
/// must trip on it. CI additionally asserts the CLI exits nonzero
/// against it.
#[test]
fn seeded_tree_trips_every_lint() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/seeded");
    let ws = Workspace::load(&root).expect("seeded fixture tree loads");
    let diags = engine::run_all(&ws);
    let fired: BTreeSet<&str> = diags.iter().map(|d| d.lint.name()).collect();
    for lint in &Lint::ALL {
        assert!(
            fired.contains(lint.name()),
            "seeded tree does not trip `{}`; diagnostics were:\n{}",
            lint.name(),
            diags
                .iter()
                .map(|d| format!("  {d}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// `proto-doc-drift` reads the job-options rows (under their wire
/// names) against PROTOCOL.md's options table, both ways.
#[test]
fn job_options_and_their_doc_table_must_agree() {
    let proto = r#"
wire_messages! { requests Request, "request"; "hello" [None] Hello { version } => { req version } }
pub fn capabilities() -> Vec<String> { vec![] }
wire_object! { "options" JobOptions => { skip cache, skip keep_points as "keep", skip explain } }
"#;
    let doc = "Speaks `hello`.\n\nThe `options` object:\n\n| field | effect |\n|---|---|\n\
               | `cache` | a |\n| `keep` | b |\n| `deadline_ms` | c |\n";
    let ws = Workspace::from_sources(&[
        ("crates/service/src/proto.rs", proto),
        ("docs/PROTOCOL.md", doc),
    ]);
    let drift: Vec<String> = engine::run_all(&ws)
        .into_iter()
        .filter(|d| d.lint == Lint::ProtoDocDrift)
        .map(|d| d.message)
        .collect();
    assert_eq!(
        drift,
        [
            "docs/PROTOCOL.md's options table documents `deadline_ms`, which JobOptions has no \
             row for",
            "job option `explain` has no row in docs/PROTOCOL.md's options table",
        ]
    );
}

/// The real workspace must lint clean — the same gate CI applies via
/// `drmap-check --deny-all`, run here so `cargo test` alone catches a
/// violation introduced alongside a code change.
#[test]
fn workspace_head_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let ws = Workspace::load(&root).expect("workspace loads");
    assert!(
        ws.files.len() > 10,
        "workspace walk looks wrong: only {} files",
        ws.files.len()
    );
    let diags = engine::run_all(&ws);
    assert!(
        diags.is_empty(),
        "the workspace must lint clean; diagnostics:\n{}",
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
