//! Seeded drift: `metrics` is advertised by the `metrics` capability
//! but `capabilities()` below does not list it,
//! `docs/PROTOCOL.md` documents neither it nor `frobnicate`, and the
//! `explain` job option has no row in the doc's options table.

/// The protocol surface, with drift seeded in.
pub enum Request {
    /// Fine: documented, baseline.
    Hello {
        /// Protocol version.
        version: u64,
    },
    /// proto-doc-drift: missing from the doc.
    Frobnicate {
        /// How hard to frobnicate.
        intensity: u8,
    },
    /// proto-doc-drift: advertised by a capability the list lacks, and
    /// missing from the doc.
    Metrics {
        /// Correlation id.
        id: Option<u64>,
    },
}

wire_messages! { requests Request, "request";
    "hello"      [None]            Hello { version }        => { req version }
    "frobnicate" [Some("jobs")]    Frobnicate { intensity } => { req intensity }
    "metrics"    [Some("metrics")] Metrics { id }           => { opt id }
}

/// proto-doc-drift: `cache` is documented, `explain` is not.
wire_object! { "options" JobOptions => { skip cache, skip explain as "explain" } validate }

/// The advertised capability list — `metrics` is missing, and
/// `sideband` is advertised but never documented.
pub fn capabilities() -> Vec<String> {
    vec!["jobs".to_owned(), "sideband".to_owned()]
}
