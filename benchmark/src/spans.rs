//! In-memory spans recorded from the benchmark's own code around the calls
//! into each layer, written out at exit as Chrome-trace JSON.
//!
//! A span has a name (the layer), a start and an end on the benchmark's
//! wall clock, the span that caused it, and the request it belongs to. A
//! layer's self time is its span minus the part of it its children cover.
//! Spans *inside* the crates are a later change (ROADMAP item 5).

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same [`Tracer`].
    pub parent: Option<usize>,
    /// Request the span belongs to (spans of one request share it).
    pub request: u64,
    /// Recording thread (Chrome-trace `tid`).
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` inside when the tracer is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Span recorder. Disabled, every call is a branch and nothing else, so the
/// same staged code runs traced and untraced and the difference between the
/// two is the tracing overhead.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose clock starts at `origin` (share one origin between
    /// the tracers of several threads so their spans line up).
    pub fn new(origin: Instant, tid: u32, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
            tid: self.tid,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close `span`, which must be the innermost open one.
    pub fn end(&mut self, span: Open) {
        let Some(id) = span.0 else {
            return;
        };
        let now = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = now;
    }

    /// Record an already-measured span (client threads learn a request's id
    /// only from its response, after the fact). Returns its index for use as
    /// a `parent`.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
            tid: self.tid,
        });
        Some(self.spans.len() - 1)
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "tracer dropped with open spans");
        self.spans
    }
}

/// Append `more` (another thread's spans) to `all`, re-basing parent links.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the part of its interval its
/// children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span name: the self times (ns) of all its spans, in recording order.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        out.entry(s.name).or_default().push(t as f64);
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto). `ts`/`dur` are
/// whole microseconds as the format wants; `args` keeps the nanosecond
/// bounds, the span's index, its parent and its request. Integers only, so
/// the repository's own `pythia_obs::diff::parse_json` can read it back.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}}}",
            s.name,
            s.tid,
            s.start_ns / 1000,
            s.dur_ns() / 1000,
            s.request,
            s.start_ns,
            s.end_ns
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 7,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a` by 10 ns and sticks out of the parent by 20 ns:
            // only 30..100 \ already-covered counts, i.e. 20..100 ∩ parent
            // minus 20..30.
            span("b", 20, 120, Some(0)),
            span("a.inner", 12, 18, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 14, 100, 6]);
        let by = self_times_by_name(&spans);
        assert_eq!(by["request"], vec![10.0]);
        assert_eq!(by["a"], vec![14.0]);
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 3, true);
        let outer = t.begin("request", 1);
        let inner = t.begin("stage", 1);
        t.end(inner);
        t.end(outer);
        let pushed = t.push("client.read", 5, 9, None, 2);
        assert_eq!(pushed, Some(2));
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].tid, 3);

        let mut off = Tracer::new(Instant::now(), 0, false);
        let s = off.begin("request", 1);
        off.end(s);
        assert_eq!(off.push("x", 0, 1, None, 0), None);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents_and_the_trace_parses_back() {
        let mut all = vec![span("request", 0, 10, None), span("x", 1, 2, Some(0))];
        merge(
            &mut all,
            vec![span("request", 20, 30, None), span("y", 21, 22, Some(0))],
        );
        assert_eq!(all[3].parent, Some(2));
        let json = chrome_trace_json(&all);
        let parsed = pythia::obs::diff::parse_json(&json).expect("trace is valid JSON");
        let pythia::obs::diff::Json::Obj(fields) = parsed else {
            panic!("trace is not an object");
        };
        let events = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v);
        assert!(matches!(events, Some(pythia::obs::diff::Json::Arr(a)) if a.len() == 4));
    }
}
