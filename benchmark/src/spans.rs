//! In-memory spans recorded by the harness around its calls into each
//! layer: `{name, start_ns, end_ns, parent, req}`. Nothing is written
//! until the run ends. A layer's *self time* is its span's duration
//! minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use drmap_service::json::Json;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Layer boundary this span was recorded at, e.g. `json.parse`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (0 while still open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request.
    pub req: u64,
}

/// A span recorder owned by one thread. Disabled recorders record
/// nothing, so the untraced run pays one branch per call site.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder measuring from `epoch` (share one epoch between the
    /// recorders of a run so their spans line up).
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Take over the finished spans of another recorder that shares
    /// this one's epoch.
    pub fn absorb(&mut self, spans: Vec<SpanRec>) {
        if self.enabled {
            merge(&mut self.spans, spans);
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.iter().rev().nth(1).copied(),
            req,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, req);
        let out = f();
        self.exit();
        out
    }

    /// Record a root span whose endpoints were timed by the caller
    /// (client requests in flight overlap, so they cannot nest on a
    /// stack).
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let since = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            start_ns: since(start),
            end_ns: since(end),
            parent: None,
            req,
        });
    }

    /// The spans recorded so far; open spans are dropped.
    pub fn finish(self) -> Vec<SpanRec> {
        assert!(self.open.is_empty(), "a span was left open");
        self.spans
    }
}

/// Append `more` to `all`, rebasing parent indices.
pub fn merge(all: &mut Vec<SpanRec>, more: Vec<SpanRec>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent. Children that
/// overlap one another are counted once.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Σ self time, ns.
    pub self_ns: u64,
}

/// Totals by span name, in name order.
pub fn totals_by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// The trace file: the per-name summary plus the raw spans (capped, so
/// a long run does not write a hundred megabytes).
pub fn to_json(spans: &[SpanRec], max_spans: usize) -> Json {
    let summary = totals_by_name(spans)
        .into_iter()
        .map(|(name, t)| {
            Json::obj([
                ("name", Json::str(name)),
                ("count", Json::num_u64(t.count)),
                ("total_ns", Json::num_u64(t.total_ns)),
                ("self_ns", Json::num_u64(t.self_ns)),
            ])
        })
        .collect();
    let raw = spans
        .iter()
        .take(max_spans)
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("start_ns", Json::num_u64(s.start_ns)),
                ("end_ns", Json::num_u64(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::num_u64(p as u64)),
                ),
                ("req", Json::num_u64(s.req)),
            ])
        })
        .collect();
    Json::obj([
        ("spans_recorded", Json::num_u64(spans.len() as u64)),
        ("by_name", Json::Arr(summary)),
        ("spans", Json::Arr(raw)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // request 0..100 ⊃ parse 10..30 ⊃ lex 12..20; request ⊃ job 40..90.
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("lex", 12, 20, Some(1)),
            span("job", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 12, 8, 50]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_unioned_and_clipped() {
        // Children 10..60 and 40..80 overlap (union 10..80 = 70); a third
        // overhangs the parent's end (90..130 clipped to 90..100).
        let spans = vec![
            span("parent", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
        // A child covering its whole parent leaves no self time.
        let spans = vec![span("p", 5, 10, None), span("k", 0, 50, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn recorder_nests_by_call_order_and_merge_rebases_parents() {
        let mut r = Recorder::new(Instant::now(), true);
        r.enter("request", 7);
        r.span("parse", 7, || ());
        r.span("job", 7, || ());
        r.exit();
        let spans = r.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.req == 7));

        let mut all = vec![span("x", 0, 1, None)];
        merge(&mut all, spans);
        assert_eq!(all[2].parent, Some(1));
        let totals = totals_by_name(&all);
        assert_eq!(totals["request"].count, 1);
        assert_eq!(totals.len(), 4);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(Instant::now(), false);
        assert_eq!(r.span("x", 1, || 5), 5);
        r.record("y", 1, Instant::now(), Instant::now());
        assert!(r.finish().is_empty());
    }
}
